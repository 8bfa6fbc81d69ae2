"""Canonical polynomial algebra over even and odd jet variables.

Every expression the package manipulates is a GradedPolynomial: a finite sum
of monomials, each a nonzero rational times a product of factors.  The
factors are base coordinates, which are even and sort first, and jet
variables.  Normalization sorts factors into the canonical order, tracking
the Koszul sign for each transposition of two odd factors and killing any
monomial in which an odd variable repeats.

The rationals are stored as integer numerators over one common denominator
den >= 1 per polynomial, normalized so that no numerator is zero,
gcd(den, *numerators) == 1, and den == 1 for the zero polynomial.  That form
is unique, so two expressions are equal iff their (den, numerator map) pairs
are identical, and equality, hashing and rendering are all decidable and
deterministic.  Arithmetic is plain int arithmetic, normalized once per
result, and a whole sum of products or of total derivatives is one result;
reduced Fractions are built only when coefficients are observed.
The order of the monomials is likewise only materialized when it is
observed, by raw_terms() and rendering; arithmetic works on an unordered
term map.  Its keys are interned Monomials, which remember their products,
total-derivative images and partials up to MEMO_CAP entries in all, so a
repeated product or derivative of a monomial costs one lookup.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import NktError, Record, too_many_digits
from .multiindex import EMPTY, MultiIndex, check_jet_order


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    def __add__(self, other: object) -> "Parity":  # type: ignore[override]
        if isinstance(other, (Parity, int)):
            return Parity((int(self) + int(other)) % 2)
        return NotImplemented

    def flipped(self) -> "Parity":
        return Parity(1 - int(self))


class Kind(IntEnum):
    """Variable kinds, in canonical sort order (stage entries interleave)."""

    FIELD = 0
    GHOST = 1
    ANTIFIELD = 2
    ANTIGHOST = 3


def _kind_rank(kind: Kind, stage: int | None) -> tuple[int, int]:
    # field < ghost < stage-ghost(k) < antifield < antighost < stage-antighost(k)
    if kind is Kind.FIELD:
        return (0, 0)
    if kind is Kind.GHOST:
        return (1, 0) if stage is None else (2, stage)
    if kind is Kind.ANTIFIELD:
        return (3, 0)
    return (4, 0) if stage is None else (5, stage)


_setattr = object.__setattr__
_VARIABLE_IDS: dict[tuple, "VariableId"] = {}


class VariableId(Record):
    """One concrete component of a declared variable family.

    Variables are interned like jet variables: equal fields give the one
    shared instance, so equality is identity, and the table holds each
    variable for the life of the process.  `rank` orders variables
    canonically.  It and the hash are computed once, on first construction;
    the hash is that of the field tuple, as for the other records, so sets
    and dicts of variables iterate in the same order.
    """

    kind: Kind
    name: str
    components: tuple[int, ...]
    parity: Parity
    stage: int | None

    __match_args__ = ("kind", "name", "components", "parity", "stage")
    __slots__ = __match_args__ + ("rank", "_hash")

    def __new__(cls, kind, name, components, parity, stage=None) -> "VariableId":
        key = (kind, name, components, parity, stage)
        self = _VARIABLE_IDS.get(key)
        if self is None:
            if stage is not None and kind in (Kind.FIELD, Kind.ANTIFIELD):
                raise ValueError("only ghosts and antighosts carry a stage")
            self = _VARIABLE_IDS[key] = object.__new__(cls)
            _setattr(self, "kind", kind)
            _setattr(self, "name", name)
            _setattr(self, "components", components)
            _setattr(self, "parity", parity)
            _setattr(self, "stage", stage)
            _setattr(self, "rank", _kind_rank(kind, stage) + (name, components))
            _setattr(self, "_hash", hash(key))
        return self

    __eq__ = object.__eq__  # equal fields are the same instance

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        prefix = "~" if self.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST) else ""
        if self.components:
            return f"{prefix}{self.name}[{','.join(map(str, self.components))}]"
        return prefix + self.name


def antifield_of(var: VariableId) -> VariableId:
    """The antifield (for fields) or antighost (for ghosts) of a variable."""
    if var.kind is Kind.FIELD:
        kind = Kind.ANTIFIELD
    elif var.kind is Kind.GHOST:
        kind = Kind.ANTIGHOST
    else:
        raise ValueError(f"{var.render()} already lives in the antifield sector")
    return VariableId(kind, var.name, var.components, var.parity.flipped(), var.stage)


def base_of_antifield(var: VariableId) -> VariableId:
    if var.kind is Kind.ANTIFIELD:
        kind = Kind.FIELD
    elif var.kind is Kind.ANTIGHOST:
        kind = Kind.GHOST
    else:
        raise ValueError(f"{var.render()} is not an antifield")
    return VariableId(kind, var.name, var.components, var.parity.flipped(), var.stage)


_INTERNED: dict[tuple[VariableId, tuple[int, ...]], "JetVariable"] = {}


class JetVariable:
    """A variable differentiated along a multi-index, e.g. y_(0,1).

    Jet variables are interned: JetVariable(var, mi) returns the one shared
    instance for (var, mi.entries), so equality is identity and the hash is
    the identity hash.  The intern table holds its instances for the life of
    the process; it grows to at most the declared variable components times
    the multi-indices up to the jet-order bound, per theory.  `key` orders
    variables canonically and `odd` is the parity as a plain flag.
    """

    __slots__ = ("var", "mi", "key", "odd", "_raised")

    def __new__(cls, var: VariableId, mi: MultiIndex = EMPTY) -> "JetVariable":
        ident = (var, mi.entries)
        self = _INTERNED.get(ident)
        if self is None:
            self = _INTERNED[ident] = object.__new__(cls)
            self.var = var
            self.mi = mi
            major, minor = _kind_rank(var.kind, var.stage)
            self.key = (
                major,
                minor,
                var.name,
                var.components,
                mi.order,
                mi.entries,
                int(var.parity),
            )
            self.odd = var.parity is Parity.ODD
            self._raised = {}
        return self

    @property
    def parity(self) -> Parity:
        return self.var.parity

    def raised(self, direction: int) -> "JetVariable":
        """This variable with one more derivative along direction.

        The result is kept per direction, but the jet-order bound in force
        is checked on every call.
        """
        up = self._raised.get(direction)
        if up is None:
            up = self._raised[direction] = JetVariable(self.var, self.mi + direction)
        else:
            check_jet_order(up.mi.order)
        return up

    def __lt__(self, other: "JetVariable") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"JetVariable({self.var.render()}, {self.mi.entries})"


def jet(var: VariableId, *directions: int) -> JetVariable:
    return JetVariable(var, MultiIndex(tuple(directions)))


# --------------------------------------------------------------------------
# Base coordinates x^0..x^{n-1}, as even factors of a monomial.

_COORDINATES: dict[int, "Coordinate"] = {}


class Coordinate:
    """The base coordinate x^k as an even factor of a monomial.

    Coordinates are interned like jet variables.  Their key sorts before
    every jet key, so a canonical term lists its coordinates first, once per
    power, and then its jet variables.
    """

    __slots__ = ("k", "key", "odd")

    def __new__(cls, k: int) -> "Coordinate":
        self = _COORDINATES.get(k)
        if self is None:
            self = _COORDINATES[k] = object.__new__(cls)
            self.k = k
            self.key = (-1, k)
            self.odd = False
        return self

    def __repr__(self) -> str:
        return f"Coordinate({self.k})"


# --------------------------------------------------------------------------
# Interned monomials and their memoized kernels.

_Factor = Coordinate | JetVariable
_Flat = tuple[_Factor, ...]

MEMO_CAP = 1 << 16
"""Most memo entries that all monomials together hold.

An entry is one remembered product (left, right), one total-derivative
image (monomial, direction) or one monomial's partials.  Entries live until
the count reaches MEMO_CAP; the next entry first clears every memo at once
(clear_memos), so the memos never hold more than MEMO_CAP entries.  A
workload whose distinct products, images and partials fit under the cap
computes each of them once for the life of the process.
"""

_MONOMIALS: dict[_Flat, "Monomial"] = {}
# the memo of a monomial that has none: read-only and shared
_NO_MEMO: Mapping = MappingProxyType({})
# the monomial holding each memo entry, in the order the entries were made
_MEMOIZED: list["Monomial"] = []


class Monomial:
    """A canonical product of factors, interned, with memoized kernels.

    Monomial(factors) returns the one shared instance for a canonical factor
    tuple, so a term map keys on identity and hashes no tuple.  Like the
    JetVariable table, the intern table holds its instances for the life of
    the process (it is dropped only with the `nkt.graded_poly` module), so
    identity stays sound however long a polynomial lives.  Each monomial
    keeps its factors, odd (its number of odd factors), jets (its factors
    after the leading coordinates) and top (the highest jet order among
    them, -1 without jets), and one memo dict, bounded by MEMO_CAP.  It
    maps each right monomial met to the product (sign, product), or
    (0, None) when an odd factor repeats; each direction to the
    total-derivative image, as (multiplier, monomial) pairs; and None to
    the partials (see _drop_flat).
    """

    __slots__ = ("factors", "odd", "jets", "top", "_memo")

    def __new__(cls, factors: _Flat) -> "Monomial":
        self = _MONOMIALS.get(factors)
        if self is None:
            self = _MONOMIALS[factors] = object.__new__(cls)
            self.factors = factors
            self.odd = sum([f.odd for f in factors])
            _, self.jets = _split(factors)
            self.top = max([len(f.mi.entries) for f in self.jets], default=-1)
            self._memo = _NO_MEMO
        return self

    def times(self, other: "Monomial") -> tuple[int, "Monomial | None"]:
        """(sign, self * other), or (0, None) when an odd factor repeats."""
        hit = self._memo.get(other)
        if hit is None:
            sign, flat = _merge_flat(self.factors, other.factors, self.odd)
            hit = (0, None) if flat is None else (sign, Monomial(flat))
            _remember(self, other, hit)
        return hit

    def image(self, direction: int) -> tuple[tuple[int, "Monomial"], ...]:
        """The total derivative along direction, as (multiplier, monomial) pairs.

        Only jet variables already within the bound in force are raised, so
        the caller checks the jet-order bound before asking.
        """
        hit = self._memo.get(direction)
        if hit is None:
            hit = _derive_flat(self.factors, direction)
            _remember(self, direction, hit)
        return hit

    def partials(self) -> tuple[tuple[JetVariable, "Monomial", int, int], ...]:
        """The jet factors with what dropping them leaves; see _drop_flat."""
        hit = self._memo.get(None)
        if hit is None:
            hit = _drop_flat(self.factors)
            _remember(self, None, hit)
        return hit

    def __repr__(self) -> str:
        return f"Monomial({self.factors!r})"


def _remember(m: Monomial, key: "Monomial | int | None", value: tuple) -> None:
    """Store one memo entry of m, first clearing every memo at MEMO_CAP."""
    if len(_MEMOIZED) >= MEMO_CAP:
        clear_memos()
    _MEMOIZED.append(m)
    if m._memo is _NO_MEMO:
        m._memo = {}
    m._memo[key] = value


def clear_memos() -> None:
    """Forget every remembered product, image and partial; monomials stay."""
    for m in _MEMOIZED:
        m._memo = _NO_MEMO
    _MEMOIZED.clear()


def memo_sizes() -> dict[str, int]:
    """Interned monomials and the entries of each kind of memo."""
    keys = [k.__class__ for m in _MONOMIALS.values() for k in m._memo]
    return {
        "monomials": len(_MONOMIALS),
        "products": keys.count(Monomial),
        "images": keys.count(int),
        "partials": keys.count(type(None)),
    }


def _merge_flat(a: _Flat, b: _Flat, odd_left: int) -> tuple[int, _Flat | None]:
    """Merge two canonical factor tuples, tracking the Koszul sign.

    odd_left is the number of odd factors in a.
    """
    out: list[_Factor] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i].key <= b[j].key:
            if a[i].odd:
                odd_left -= 1
            out.append(a[i])
            i += 1
        else:
            if b[j].odd and (odd_left & 1):
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    for u, v in zip(out, out[1:]):
        if u is v and u.odd:
            return 0, None
    return sign, tuple(out)


def _derive_flat(flat: _Flat, direction: int) -> tuple[tuple[int, Monomial], ...]:
    """The total derivative of one canonical term, as (multiplier, monomial).

    Each factor x^direction is dropped once; other coordinates stay.
    Raising jet factor i keeps the others in place: the raised factor only
    moves right past the factors of its own variable with a smaller key,
    picking up the sign of the odd factors it passes, and the term vanishes
    if an odd raised factor lands on an equal one.  Equal results (from a
    repeated even factor) are merged at the first one.
    """
    acc: dict[_Flat, int] = {}
    n = len(flat)
    for i, f in enumerate(flat):
        if f.__class__ is not JetVariable:
            if f.k == direction:
                dropped = flat[:i] + flat[i + 1 :]
                acc[dropped] = acc.get(dropped, 0) + 1
            continue
        up = f._raised.get(direction)
        if up is None:
            up = f.raised(direction)
        key = up.key
        j = i + 1
        passed = 0
        while j < n and flat[j].key < key:
            passed += flat[j].odd
            j += 1
        if up.odd:
            if j < n and flat[j] is up:
                continue
            step = -1 if passed & 1 else 1
        else:
            step = 1
        raised = flat[:i] + flat[i + 1 : j] + (up,) + flat[j:]
        acc[raised] = acc.get(raised, 0) + step
    return tuple([(c, Monomial(t)) for t, c in acc.items() if c])


def _drop_flat(flat: _Flat) -> tuple[tuple[JetVariable, Monomial, int, int], ...]:
    """Each jet factor of a canonical term with the term it leaves, and signs.

    Dropping one factor from a canonical term leaves a canonical term, so
    only the Koszul sign needs tracking: an odd variable's derivative passes
    the odd factors on its left (left partial) or on its right (right
    partial).  Entries are (jet, rest, left multiplier, right multiplier); a
    repeated even factor appears once, with its power as both multipliers.
    """
    acc: dict[JetVariable, list] = {}
    odd_before = 0
    odd_after = sum([f.odd for f in flat])
    for i, f in enumerate(flat):
        left = right = 1
        if f.odd:
            odd_after -= 1
            if odd_before & 1:
                left = -1
            if odd_after & 1:
                right = -1
            odd_before += 1
        if f.__class__ is not JetVariable:
            continue
        entry = acc.get(f)
        if entry is None:
            acc[f] = [flat[:i] + flat[i + 1 :], left, right]
        else:
            entry[1] += left
            entry[2] += right
    return tuple([(f, Monomial(rest), l, r) for f, (rest, l, r) in acc.items()])


def _all_partials(
    terms: Mapping[Monomial, int], den: int, right: bool
) -> Mapping[JetVariable, "GradedPolynomial"]:
    """Every graded partial of a numerator map over den, in one pass.

    Each monomial contributes its memoized partials; every partial keeps the
    denominator.
    """
    acc: dict[JetVariable, dict[Monomial, int]] = {}
    for m, s in terms.items():
        drops = m._memo.get(None)
        if drops is None:
            drops = m.partials()
        for f, rest, on_left, on_right in drops:
            contrib = s * (on_right if right else on_left)
            bucket = acc.get(f)
            if bucket is None:
                bucket = acc[f] = {}
            cur = bucket.get(rest)
            bucket[rest] = contrib if cur is None else cur + contrib
    return MappingProxyType(
        {f: GradedPolynomial._from_terms(b, den) for f, b in acc.items()}
    )


def _split(flat: _Flat) -> tuple[_Flat, _Flat]:
    """A canonical term's leading coordinates and its jet variables."""
    n = 0
    while n < len(flat) and flat[n].__class__ is Coordinate:
        n += 1
    return flat[:n], flat[n:]


def _runs(factors: _Flat) -> list[tuple[_Factor, int]]:
    """Equal adjacent factors packed as (factor, power)."""
    runs: list[tuple[_Factor, int]] = []
    for f in factors:
        if runs and runs[-1][0] is f:
            runs[-1] = (f, runs[-1][1] + 1)
        else:
            runs.append((f, 1))
    return runs


def _term_order(term: tuple[Monomial, int]) -> tuple[list[tuple], tuple]:
    # by jet part first, so terms sharing one are adjacent, then by the
    # coordinate exponents ((k, e), ...)
    m = term[0]
    coords = m.factors[: len(m.factors) - len(m.jets)]
    return [f.key for f in m.jets], tuple((c.k, e) for c, e in _runs(coords))


_ONE = Monomial(())


class GradedPolynomial:
    """Canonical sum of graded monomials; immutable.

    The terms live in a map from interned Monomial to nonzero int numerator,
    over one common denominator _den (see the module docstring for the
    invariant); the views give canonical factor tuples, not monomials.
    Equality compares (_den, map) and the hash is independent of the order
    the map was filled in.  The canonical term order is built only when it
    is observed (raw_terms and rendering): the first observation refills the
    map in that order, and the second keeps the (factors, Fraction) tuple.
    The partial-derivative maps are filled on first use only; like the tuple
    they are derived from (_den, map), so equality and hashing never look at
    them.
    """

    __slots__ = ("_terms", "_den", "_raw", "_left", "_right")

    def __init__(self, terms: Mapping[_Flat, Fraction | int] | None = None):
        # factors in any order, canonicalized as gp_normalize does
        self._take(*_fold([(q, f) for f, q in terms.items()] if terms else ()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPolynomial is immutable")

    def _take(self, acc: dict[Monomial, int], den: int) -> None:
        # the one normalization: drop zero numerators, divide out the gcd
        if 0 in acc.values():
            for m in [m for m, n in acc.items() if not n]:
                del acc[m]
        if den != 1:
            g = gcd(den, *acc.values())
            if g != 1:
                den //= g
                for m, n in acc.items():
                    acc[m] = n // g
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_terms(cls, acc: dict[Monomial, int], den: int) -> "GradedPolynomial":
        """Take over a map of monomials to int numerators over den > 0.

        The result is normalized in place: zero numerators are deleted from
        acc and the gcd of den and the numerators is divided out, so the
        caller must not touch acc afterwards.
        """
        out = object.__new__(cls)
        out._take(acc, den)
        return out

    # an empty or one-factor monomial is canonical: these skip the fold

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls._from_terms({}, 1)

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls._from_terms({_ONE: 1}, 1)

    @classmethod
    def scalar(cls, q: Fraction | int) -> "GradedPolynomial":
        return cls._from_terms({_ONE: q.numerator}, q.denominator)

    @classmethod
    def coordinate(cls, k: int) -> "GradedPolynomial":
        return cls._from_terms({Monomial((Coordinate(k),)): 1}, 1)

    @classmethod
    def variable(cls, v: JetVariable | VariableId) -> "GradedPolynomial":
        if isinstance(v, VariableId):
            v = JetVariable(v)
        return cls._from_terms({Monomial((v,)): 1}, 1)

    # -- views -------------------------------------------------------------

    def raw_terms(self) -> tuple[tuple[_Flat, Fraction], ...]:
        """The (factors, reduced Fraction) pairs in canonical order.

        The first call sorts the term map into that order in place and keeps
        no copy; the second keeps the tuple it builds, for callers that
        observe one polynomial repeatedly.
        """
        try:
            raw = self._raw
        except AttributeError:
            ordered = dict(sorted(self._terms.items(), key=_term_order))
            object.__setattr__(self, "_terms", ordered)
            object.__setattr__(self, "_raw", None)
            return self._pairs()
        if raw is None:
            raw = self._pairs()
            object.__setattr__(self, "_raw", raw)
        return raw

    def _pairs(self) -> tuple[tuple[_Flat, Fraction], ...]:
        den = self._den
        return tuple([(m.factors, Fraction(n, den)) for m, n in self._terms.items()])

    def items(self) -> Iterable[tuple[_Flat, Fraction]]:
        """The (factors, reduced Fraction) pairs in no particular order."""
        den = self._den
        return ((m.factors, Fraction(n, den)) for m, n in self._terms.items())

    def monomials(self) -> list[_Flat]:
        """The canonical factor tuples that occur, in no particular order."""
        return [m.factors for m in self._terms]

    def numerators(self) -> list[tuple[_Flat, int]]:
        """The (factors, int numerator) pairs over denominator(), in no order."""
        return [(m.factors, n) for m, n in self._terms.items()]

    def denominator(self) -> int:
        """The common denominator of the coefficients, coprime to their numerators."""
        return self._den

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[JetVariable]:
        """The jet variables that occur; coordinates are not variables."""
        seen: set[JetVariable] = set()
        for m in self._terms:
            seen.update(m.jets)
        return seen

    def base_variables(self) -> set[VariableId]:
        return {jv.var for jv in self.variables()}

    def max_jet_order(self) -> int:
        return max([0, *[m.top for m in self._terms]])

    def parity(self) -> Parity | None:
        """EVEN/ODD for homogeneous polynomials, None for mixed; zero is even."""
        seen = {m.odd & 1 for m in self._terms}
        if len(seen) > 1:
            return None
        return Parity(seen.pop()) if seen else Parity.EVEN

    # -- graded partials -----------------------------------------------------

    def left_partials(self) -> Mapping[JetVariable, "GradedPolynomial"]:
        """Left partial d/dv for every variable v that occurs, keyed by v."""
        try:
            return self._left
        except AttributeError:
            out = _all_partials(self._terms, self._den, right=False)
            object.__setattr__(self, "_left", out)
            return out

    def right_partials(self) -> Mapping[JetVariable, "GradedPolynomial"]:
        """Right partial d/dv for every variable v that occurs, keyed by v."""
        try:
            return self._right
        except AttributeError:
            out = _all_partials(self._terms, self._den, right=True)
            object.__setattr__(self, "_right", out)
            return out

    # -- total derivatives ---------------------------------------------------

    def derivative(self, direction: int) -> "GradedPolynomial":
        """The total derivative d_direction of this polynomial.

        The one-item case of gp_sum_of_derivatives: one run of its raise
        loop (_raise_into), which keeps the denominator and adds only the
        numerators.
        """
        acc: dict[Monomial, int] = {}
        _raise_into(acc, self._terms, direction, 1)
        return GradedPolynomial._from_terms(acc, self._den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self, other))

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial._from_terms(
            {m: -n for m, n in self._terms.items()}, self._den
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self,), (other,))

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        # the one-pair case of gp_sum_of_products, run on its loop directly:
        # the kernel's pass over its pairs is a large share of a small product
        acc: dict[Monomial, int] = {}
        _multiply_into(acc, self, other, 1)
        return GradedPolynomial._from_terms(acc, self._den * other._den)

    def __pow__(self, exponent: int) -> "GradedPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = GradedPolynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def scaled(self, q: Fraction | int) -> "GradedPolynomial":
        num = q.numerator
        return GradedPolynomial._from_terms(
            {m: n * num for m, n in self._terms.items()},
            self._den * q.denominator,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"GradedPolynomial<{len(self._terms)} terms>"


def gp_sum(
    polys: Iterable[GradedPolynomial], negated: Iterable[GradedPolynomial] = ()
) -> GradedPolynomial:
    """The sum of polys minus the sum of negated, canonicalized once.

    The sum's denominator is the lcm of the summands' denominators; each
    summand's numerators are scaled by one multiplier to reach it.
    """
    parts = [(p, 1) for p in polys]
    if negated:
        parts += [(p, -1) for p in negated]
    den = lcm(*[p._den for p, _ in parts])
    acc: dict[Monomial, int] = {}
    for p, sign in parts:
        _add_into(acc, p._terms, sign * (den // p._den))
    return GradedPolynomial._from_terms(acc, den)


def _add_into(acc: dict[Monomial, int], terms: Mapping[Monomial, int], k: int) -> None:
    """Add k times a numerator map to acc."""
    if k == 1 and not acc:
        acc.update(terms)
        return
    for m, n in terms.items():
        n *= k
        cur = acc.get(m)
        acc[m] = n if cur is None else cur + n


def gp_sum_of_products(
    pairs: Iterable[tuple[GradedPolynomial, GradedPolynomial]],
) -> GradedPolynomial:
    """The sum of a * b over pairs, canonicalized once.

    Each (a, b) keeps its operand order, so the Koszul sign of every
    monomial product is that of a * b.  Every product of two terms is added
    straight into one numerator map over the lcm of the products'
    denominators (each product's den is a's times b's); one multiplier per
    pair brings the pair to it.
    """
    pairs = list(pairs)
    den = lcm(*[a._den * b._den for a, b in pairs])
    acc: dict[Monomial, int] = {}
    for a, b in pairs:
        _multiply_into(acc, a, b, den // (a._den * b._den))
    return GradedPolynomial._from_terms(acc, den)


def _multiply_into(
    acc: dict[Monomial, int], a: GradedPolynomial, b: GradedPolynomial, k: int
) -> None:
    """Add k times the numerators of a * b to acc, each term product memoized."""
    right = b._terms.items()
    for ma, na in a._terms.items():
        na *= k
        products = ma._memo
        for mb, nb in right:
            hit = products.get(mb)
            if hit is None:
                hit = ma.times(mb)
            sign, merged = hit
            if not sign:
                continue
            n = na * nb
            cur = acc.get(merged)
            if sign < 0:
                acc[merged] = -n if cur is None else cur - n
            else:
                acc[merged] = n if cur is None else cur + n


def gp_sum_of_derivatives(
    items: Iterable[tuple[GradedPolynomial, Sequence[int], Fraction | int]],
) -> GradedPolynomial:
    """The sum of weight * d_Lam(p) over items (p, Lam, weight), canonicalized once.

    Lam is a sequence of directions, such as a MultiIndex's entries, and
    weight an int or a Fraction.  Between the steps of one d_Lam the terms
    stay a plain numerator map, with zeros dropped and no gcd taken; the
    last step adds into one map over the lcm of the items' denominators.
    Every step checks the jet-order bound (see _raise_into), so a
    JetOrderError names the order that applying total_derivative step by
    step names.
    """
    items = list(items)
    den = lcm(*[p._den * w.denominator for p, _, w in items])
    acc: dict[Monomial, int] = {}
    for p, lam, w in items:
        k = w.numerator * (den // (p._den * w.denominator))
        terms = p._terms
        for direction in lam[:-1]:
            step: dict[Monomial, int] = {}
            _raise_into(step, terms, direction, 1)
            terms = {m: n for m, n in step.items() if n}
        if lam:
            _raise_into(acc, terms, lam[-1], k)
        else:
            _add_into(acc, terms, k)
    return GradedPolynomial._from_terms(acc, den)


def _raise_into(
    acc: dict[Monomial, int], terms: Mapping[Monomial, int], direction: int, k: int
) -> None:
    """Add k times the total derivative of a numerator map to acc.

    Each monomial contributes its memoized image along direction (see
    _derive_flat): its x^direction factors dropped once each, and each jet
    factor raised in place with the Koszul sign of the odd factors it
    passes.  The jet-order bound is checked first, on the highest raised
    order, so the error names the same order whatever order the terms come
    in, and a remembered image never lets a raise past a bound lowered
    since.  terms must hold no zero numerators, so that its highest order
    is the one a canonical polynomial of the same value has.
    """
    top = max([m.top for m in terms], default=-1)
    if top >= 0:
        check_jet_order(top + 1)
    for m, s in terms.items():
        image = m._memo.get(direction)
        if image is None:
            image = m.image(direction)
        s *= k
        for c, r in image:
            n = c * s
            cur = acc.get(r)
            acc[r] = n if cur is None else cur + n


def gp_normalize(
    raw_terms: Iterable[tuple[Fraction | int, Sequence[_Factor]]],
) -> GradedPolynomial:
    """Canonicalize a raw term list: sort factors, track signs, merge terms.

    Each raw term is (coefficient, factor sequence) with factors in any order
    and with repeats spelled out; odd repeats annihilate the term.
    """
    return GradedPolynomial._from_terms(*_fold(raw_terms))


def _fold(
    raw_terms: Iterable[tuple[Fraction | int, Sequence[_Factor]]],
) -> tuple[dict[Monomial, int], int]:
    """The numerators and denominator of raw terms, before _take reduces them.

    The one place where a raw factor sequence becomes a monomial: factors
    are folded in one at a time through the monomial product, so the sign
    and the zero rule are exactly those of multiplication.
    """
    merged: list[tuple[Monomial, Fraction | int]] = []
    for coeff, factors in raw_terms:
        sign, m = 1, _ONE
        for f in factors:
            step, m = m.times(Monomial((f,)))
            if m is None:
                break
            sign *= step
        if m is not None and coeff:
            merged.append((m, coeff if sign > 0 else -coeff))
    den = lcm(*(q.denominator for _, q in merged))
    acc: dict[Monomial, int] = {}
    for m, q in merged:
        n = q.numerator * (den // q.denominator)
        cur = acc.get(m)
        acc[m] = n if cur is None else cur + n
    return acc, den


class Density(Record):
    """A horizontal density: coefficient of the volume form omega."""

    expr: GradedPolynomial

    __slots__ = __match_args__ = ("expr",)

    def __init__(self, expr) -> None:
        self._set_fields(expr)


# --------------------------------------------------------------------------
# Deterministic text rendering.  The forms produced here are exactly what
# the theory-file grammar accepts, so render/parse round-trips are stable.
# Terms that share their jet part render as one term whose coefficient is
# the sum of their coordinate monomials, e.g. (2 + x0)*y.


def coordinate_token(k: int, dim: int) -> str:
    return "x" if dim == 1 else f"x{k}"


def render_jet_variable(jv: JetVariable, dim: int) -> str:
    prefix = "~" if jv.var.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST) else ""
    comps = ",".join(str(c) for c in jv.var.components)
    dirs = ",".join(coordinate_token(d, dim) for d in jv.mi.entries)
    if jv.mi.order:
        return f"{prefix}{jv.var.name}[{comps};{dirs}]"
    if comps:
        return f"{prefix}{jv.var.name}[{comps}]"
    return prefix + jv.var.name


def _power(token: str, exp: int) -> str:
    return token if exp == 1 else f"{token}^{exp}"


def _join_signed(signed: Iterable[tuple[int, str]]) -> str:
    chunks: list[str] = []
    for i, (sign, body) in enumerate(signed):
        if i == 0:
            chunks.append(("-" if sign < 0 else "") + body)
        else:
            chunks.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(chunks)


def _coordinate_monomial_parts(
    coords: _Flat, q: Fraction, dim: int
) -> tuple[int, list[str]]:
    """Sign and factor strings for one coordinate monomial (abs value)."""
    mag = abs(q)
    parts: list[str] = []
    if mag != 1 or not coords:
        try:
            parts.append(str(mag))
        except ValueError:
            raise NktError(too_many_digits("a coefficient")) from None
    for c, exp in _runs(coords):
        parts.append(_power(coordinate_token(c.k, dim), exp))
    return (-1 if q < 0 else 1), parts


def _term_signed_body(
    jets: _Flat, coefficient: list[tuple[_Flat, Fraction]], dim: int
) -> tuple[int, str]:
    factor_parts = [_power(render_jet_variable(jv, dim), e) for jv, e in _runs(jets)]
    if len(coefficient) == 1:
        ((coords, q),) = coefficient
        sign, coeff_parts = _coordinate_monomial_parts(coords, q, dim)
        if factor_parts and coeff_parts == ["1"]:
            coeff_parts = []
        return sign, "*".join(coeff_parts + factor_parts)
    inner = _join_signed(
        (sign, "*".join(parts))
        for sign, parts in (
            _coordinate_monomial_parts(coords, q, dim) for coords, q in coefficient
        )
    )
    return 1, "*".join([f"({inner})"] + factor_parts)


def render_polynomial(p: GradedPolynomial, dim: int) -> str:
    if p.is_zero():
        return "0"
    groups: list[tuple[_Flat, list[tuple[_Flat, Fraction]]]] = []
    for flat, q in p.raw_terms():
        coords, jets = _split(flat)
        if groups and groups[-1][0] == jets:
            groups[-1][1].append((coords, q))
        else:
            groups.append((jets, [(coords, q)]))
    return _join_signed(
        _term_signed_body(jets, coefficient, dim) for jets, coefficient in groups
    )
