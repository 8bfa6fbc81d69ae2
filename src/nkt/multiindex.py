"""Symmetric multi-indices for iterated total derivatives.

A multi-index is a multiset of base-coordinate directions, kept as a sorted
tuple so that each multiset has exactly one representative.  All coefficient
families in this package are stored against these canonical representatives
and summed over distinct multi-indices, never over ordered tuples.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator

from .config import max_jet_order
from .errors import JetOrderError


def check_jet_order(order: int) -> None:
    """Raise JetOrderError if a multi-index of this order exceeds the bound."""
    limit = max_jet_order()
    if order > limit:
        raise JetOrderError(
            f"jet order {order} exceeds the bound {limit}"
            " (raise NKT_MAX_JET_ORDER to override)"
        )


class MultiIndex:
    """A multiset of base directions, e.g. (0, 0, 1) for d0 d0 d1."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...] = ()):
        entries = tuple(sorted(entries))
        for e in entries:
            if e < 0:
                raise ValueError(f"negative base direction {e}")
        check_jet_order(len(entries))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiIndex is immutable")

    def __reduce__(self) -> tuple:
        return (MultiIndex, (self.entries,))

    @property
    def order(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return (len(self.entries), self.entries) < (len(other.entries), other.entries)

    def __add__(self, other: "MultiIndex | int") -> "MultiIndex":
        if isinstance(other, int):
            return MultiIndex(self.entries + (other,))
        return MultiIndex(self.entries + other.entries)

    def multiplicity(self, direction: int) -> int:
        return self.entries.count(direction)

    def __repr__(self) -> str:
        return f"MultiIndex({self.entries!r})"

    def render(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


EMPTY = MultiIndex()


_ENUMERATIONS: dict[tuple[int, int], tuple[MultiIndex, ...]] = {}


def mi_enumerate(n: int, up_to_order: int) -> list[MultiIndex]:
    """All distinct multi-indices over n directions with order <= up_to_order.

    Ordered by (order, entries), which is the canonical enumeration order
    used everywhere coefficients are listed.  Each (n, up_to_order) is
    enumerated once per process; the jet-order bound is checked on every
    call, and every call gets a fresh list.
    """
    if n < 1:
        raise ValueError("base dimension must be at least 1")
    check_jet_order(up_to_order)
    known = _ENUMERATIONS.get((n, up_to_order))
    if known is None:
        known = _ENUMERATIONS[(n, up_to_order)] = tuple(
            MultiIndex(combo)
            for k in range(up_to_order + 1)
            for combo in combinations_with_replacement(range(n), k)
        )
    return list(known)


def split_weight(sigma: MultiIndex, lam: MultiIndex) -> int:
    """Number of distinct ways the multiset sigma+lam splits into (sigma, lam).

    Per direction i this is C(m_i(sigma)+m_i(lam), m_i(sigma)); the total is
    the product.  For one base direction it reduces to C(|sigma+lam|,
    |sigma|).  This is the weight with which a symmetric coefficient
    family's ordered-tuple sums collapse onto canonical representatives, and
    it is exactly the multivariate Leibniz count for d_(sigma+lam)(f g).
    """
    directions = set(sigma.entries) | set(lam.entries)
    w = 1
    for d in directions:
        ms, ml = sigma.multiplicity(d), lam.multiplicity(d)
        w *= math.comb(ms + ml, ms)
    return w
