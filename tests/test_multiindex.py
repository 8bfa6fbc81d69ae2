"""Multi-index bookkeeping: enumeration, merging, split weights, the cap."""

from __future__ import annotations

import itertools
import math

import pytest

from nkt import config
from nkt.errors import JetOrderError
from nkt.multiindex import EMPTY, MultiIndex, mi_enumerate, split_weight


def _brute_force_multisets(n: int, up_to: int) -> set[tuple[int, ...]]:
    # Independent enumeration: sort every ordered tuple and dedupe.
    out: set[tuple[int, ...]] = set()
    for k in range(up_to + 1):
        for tup in itertools.product(range(n), repeat=k):
            out.add(tuple(sorted(tup)))
    return out


def test_enumerate_matches_brute_force() -> None:
    for n in (1, 2, 3):
        for up_to in (0, 1, 2, 3):
            got = {mi.entries for mi in mi_enumerate(n, up_to)}
            assert got == _brute_force_multisets(n, up_to)


def test_enumerate_count_n2_k2() -> None:
    # {}, {0}, {1}, {00}, {01}, {11}
    assert len(mi_enumerate(2, 2)) == 6


def test_enumerate_is_sorted_canonically() -> None:
    mis = mi_enumerate(3, 3)
    keys = [(m.order, m.entries) for m in mis]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_entries_are_sorted_on_construction() -> None:
    assert MultiIndex((2, 0, 1)).entries == (0, 1, 2)
    assert MultiIndex((1, 1, 0)) == MultiIndex((0, 1, 1))


def test_add_merges_multisets() -> None:
    assert (MultiIndex((0, 2)) + MultiIndex((1, 0))).entries == (0, 0, 1, 2)
    assert (EMPTY + MultiIndex((3,))).entries == (3,)
    assert (MultiIndex((1,)) + 0).entries == (0, 1)


def _brute_force_split_count(sigma: tuple[int, ...], lam: tuple[int, ...]) -> int:
    # Count position subsets of the merged multiset that realize (sigma, lam).
    merged = tuple(sorted(sigma + lam))
    k = len(sigma)
    seen = 0
    counted: set[tuple[int, ...]] = set()
    for positions in itertools.combinations(range(len(merged)), k):
        picked = tuple(sorted(merged[i] for i in positions))
        rest = tuple(
            sorted(merged[i] for i in range(len(merged)) if i not in positions)
        )
        if picked == tuple(sorted(sigma)) and rest == tuple(sorted(lam)):
            if positions not in counted:
                counted.add(positions)
                seen += 1
    return seen


def test_split_weight_counts_position_splits() -> None:
    cases = [
        ((), ()),
        ((0,), ()),
        ((0,), (0,)),
        ((0, 0), (0,)),
        ((0,), (1,)),
        ((0, 1), (0, 1)),
        ((0, 0, 1), (0, 1, 1)),
        ((2,), (0, 1, 2, 2)),
    ]
    for sigma, lam in cases:
        got = split_weight(MultiIndex(sigma), MultiIndex(lam))
        assert got == _brute_force_split_count(sigma, lam), (sigma, lam)


def test_split_weight_reduces_to_binom_in_one_dimension() -> None:
    for a in range(5):
        for b in range(5):
            w = split_weight(MultiIndex((0,) * a), MultiIndex((0,) * b))
            assert w == math.comb(a + b, a)


def test_order_cap_enforced() -> None:
    MultiIndex((0,) * 8)
    with pytest.raises(JetOrderError):
        MultiIndex((0,) * 9)


def test_order_cap_env_override(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "10")
    config.reload()
    assert MultiIndex((0,) * 10).order == 10
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "not-a-number")
    config.reload()
    with pytest.raises(JetOrderError):
        MultiIndex((0,) * 9)


def test_the_bound_is_read_once_until_reloaded(monkeypatch: pytest.MonkeyPatch) -> None:
    bound = config.max_jet_order()
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "3")
    assert config.max_jet_order() == bound
    config.reload()
    assert config.max_jet_order() == 3
    with pytest.raises(JetOrderError):
        MultiIndex((0,) * 4)


def test_enumeration_is_remembered_but_the_bound_is_checked_each_call(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    first = mi_enumerate(2, 4)
    first.clear()  # each call gets its own list
    again = mi_enumerate(2, 4)
    assert [mi.entries for mi in again][:4] == [(), (0,), (1,), (0, 0)]
    assert len(again) == 15
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "3")
    config.reload()
    # the message every jet-order refusal carries
    with pytest.raises(
        JetOrderError,
        match=r"^jet order 4 exceeds the bound 3 \(raise NKT_MAX_JET_ORDER to override\)$",
    ):
        mi_enumerate(2, 4)
    assert len(mi_enumerate(2, 3)) == 10


def test_render() -> None:
    assert MultiIndex((0, 0, 1)).render() == "[0,0,1]"
    assert EMPTY.render() == "[]"
