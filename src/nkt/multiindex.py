"""Symmetric multi-indices for iterated total derivatives.

A multi-index is a multiset of base-coordinate directions, kept as a sorted
tuple and interned like variables and monomials: MultiIndex(entries) returns
the one shared instance for the sorted entries, so equality is identity.
All coefficient families in this package are stored against these canonical
representatives and summed over distinct multi-indices, never over ordered
tuples.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product
from typing import Iterable

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


Split = tuple["MultiIndex", tuple[int, ...], int]  # (Lam, Sigma's entries, weight)

_MULTIINDICES: dict[tuple[int, ...], "MultiIndex"] = {}


class MultiIndex:
    """A multiset of base directions, e.g. (0, 0, 1) for d0 d0 d1.

    Interned for the life of the process, and checked against the jet-order
    bound in force on every call, whether new or already interned.
    """

    __slots__ = ("entries", "_splits")

    def __new__(cls, entries: Iterable[int] = ()) -> "MultiIndex":
        entries = tuple(sorted(entries))
        self = _MULTIINDICES.get(entries)
        if self is None:
            if entries and entries[0] < 0:
                raise ValueError(f"negative base direction {entries[0]}")
            self = object.__new__(cls)
            object.__setattr__(self, "entries", entries)
            object.__setattr__(self, "_splits", None)
        check_jet_order(len(entries))
        return _MULTIINDICES.setdefault(entries, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiIndex is immutable")

    def __reduce__(self) -> tuple:
        return (MultiIndex, (self.entries,))

    @property
    def order(self) -> int:
        return len(self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return (len(self.entries), self.entries) < (len(other.entries), other.entries)

    def __add__(self, other: "MultiIndex | int") -> "MultiIndex":
        if isinstance(other, int):
            return MultiIndex(self.entries + (other,))
        return MultiIndex(self.entries + other.entries)

    def splits(self) -> tuple[Split, ...]:
        """The splits into Lam + Sigma as (Lam, Sigma's entries, weight).

        Lam runs over the sub-multisets, the last direction's count fastest;
        the weight, the number of ways this multiset splits into (Sigma, Lam),
        is the product over directions of C(m_d, c_d), for the counts of d
        here and in Lam.  The splits are kept on the instance, but past a
        bound lowered since then they raise the JetOrderError that building
        them raises: the first Lam past it.
        """
        known = self._splits
        if known is None:
            dirs = sorted(set(self.entries))
            counts = [self.entries.count(d) for d in dirs]
            built = []
            for picked in product(*(range(m + 1) for m in counts)):
                lam, sigma = (), ()
                for d, m, c in zip(dirs, counts, picked):
                    lam, sigma = lam + (d,) * c, sigma + (d,) * (m - c)
                weight = math.prod(map(math.comb, counts, picked))
                built.append((MultiIndex(lam), sigma, weight))
            known = tuple(built)
            object.__setattr__(self, "_splits", known)
        elif len(self.entries) > max_jet_order():
            for lam, _, _ in known:
                check_jet_order(lam.order)
        return known

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
