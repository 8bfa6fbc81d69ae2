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
result; reduced Fractions are built only when coefficients are observed.
The order of the monomials is likewise only materialized when it is
observed, by raw_terms() and rendering; arithmetic works on an unordered
term map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import ItemsView, Iterable, KeysView, Mapping, Sequence

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


@dataclass(frozen=True)
class VariableId:
    """One concrete component of a declared variable family."""

    kind: Kind
    name: str
    components: tuple[int, ...]
    parity: Parity
    stage: int | None = None

    def __post_init__(self) -> None:
        if self.stage is not None and self.kind in (Kind.FIELD, Kind.ANTIFIELD):
            raise ValueError("only ghosts and antighosts carry a stage")

    @property
    def rank(self) -> tuple[int, int, str, tuple[int, ...]]:
        major, minor = _kind_rank(self.kind, self.stage)
        return (major, minor, self.name, self.components)

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
# Graded monomials and polynomials.

_Factor = Coordinate | JetVariable
_Flat = tuple[_Factor, ...]


def _merge_flat(a: _Flat, b: _Flat) -> tuple[int, _Flat | None]:
    """Merge two canonical factor tuples, tracking the Koszul sign."""
    out: list[_Factor] = []
    sign = 1
    odd_left = sum(1 for f in a if f.odd)
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


def _all_partials(
    terms: Mapping[_Flat, int], den: int, right: bool
) -> Mapping[JetVariable, "GradedPolynomial"]:
    """Every graded partial of a canonical numerator map over den, in one pass.

    Dropping one factor from a canonical term leaves a canonical term, so
    only the Koszul sign needs tracking: an odd variable's derivative passes
    the odd factors on its left (left partial) or on its right (right
    partial).  A repeated even factor contributes once per occurrence.
    Every partial keeps the denominator.  Coordinates are dropped like any
    even factor; their buckets are discarded at the end.
    """
    acc: dict[_Factor, dict[_Flat, int]] = {}
    for flat, s in terms.items():
        odd = [f.odd for f in flat]
        odd_before = 0
        odd_after = sum(odd)
        for i, f in enumerate(flat):
            contrib = s
            if odd[i]:
                odd_after -= 1
                if (odd_after if right else odd_before) & 1:
                    contrib = -s
                odd_before += 1
            rest = flat[:i] + flat[i + 1 :]
            bucket = acc.get(f)
            if bucket is None:
                bucket = acc[f] = {}
            cur = bucket.get(rest)
            bucket[rest] = contrib if cur is None else cur + contrib
    return MappingProxyType(
        {
            f: GradedPolynomial.from_accumulator(b, den)
            for f, b in acc.items()
            if f.__class__ is JetVariable
        }
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


def _term_order(term: tuple[_Flat, int]) -> tuple[list[tuple], tuple]:
    # by jet part first, so terms sharing one are adjacent, then by the
    # coordinate exponents ((k, e), ...)
    coords, jets = _split(term[0])
    return [f.key for f in jets], tuple((c.k, e) for c, e in _runs(coords))


class GradedPolynomial:
    """Canonical sum of graded monomials; immutable.

    The terms live in a map from canonical factor tuple to nonzero int
    numerator, over one common denominator _den (see the module docstring
    for the invariant).  Equality compares (_den, map) and the hash is
    independent of the order the map was filled in.  The canonical term
    order is built only when it is observed (raw_terms and rendering): the
    first observation refills the map in that order, and the second keeps
    the (factors, Fraction) tuple.  The partial-derivative maps are filled
    on first use only; like the tuple they are derived from (_den, map), so
    equality and hashing never look at them.
    """

    __slots__ = ("_terms", "_den", "_raw", "_left", "_right")

    def __init__(self, terms: Mapping[_Flat, Fraction | int] | None = None):
        terms = terms or {}
        den = lcm(*[q.denominator for q in terms.values()])
        acc = {flat: q.numerator * (den // q.denominator) for flat, q in terms.items()}
        self._take(acc, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPolynomial is immutable")

    def _take(self, acc: dict[_Flat, int], den: int) -> None:
        # the one normalization: drop zero numerators, divide out the gcd
        if 0 in acc.values():
            for flat in [flat for flat, n in acc.items() if not n]:
                del acc[flat]
        if den != 1:
            g = gcd(den, *acc.values())
            if g != 1:
                den //= g
                for flat, n in acc.items():
                    acc[flat] = n // g
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_accumulator(cls, acc: dict[_Flat, int], den: int) -> "GradedPolynomial":
        """Take over a map of canonical factor tuples to int numerators over den.

        den must be a positive int.  The result is normalized in place: zero
        numerators are deleted from acc and the gcd of den and the numerators
        is divided out, so the caller must not touch acc afterwards.
        """
        out = object.__new__(cls)
        out._take(acc, den)
        return out

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls({(): 1})

    @classmethod
    def scalar(cls, q: Fraction | int) -> "GradedPolynomial":
        return cls({(): q})

    @classmethod
    def coordinate(cls, k: int) -> "GradedPolynomial":
        return cls({(Coordinate(k),): 1})

    @classmethod
    def variable(cls, v: JetVariable | VariableId) -> "GradedPolynomial":
        if isinstance(v, VariableId):
            v = JetVariable(v)
        return cls({(v,): 1})

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
        return tuple([(flat, Fraction(n, den)) for flat, n in self._terms.items()])

    def items(self) -> Iterable[tuple[_Flat, Fraction]]:
        """The (factors, reduced Fraction) pairs in no particular order."""
        den = self._den
        return ((flat, Fraction(n, den)) for flat, n in self._terms.items())

    def monomials(self) -> KeysView[_Flat]:
        """The canonical factor tuples that occur, in no particular order."""
        return self._terms.keys()

    def numerators(self) -> ItemsView[_Flat, int]:
        """The (factors, int numerator) pairs over denominator(), in no order."""
        return self._terms.items()

    def denominator(self) -> int:
        """The common denominator of the coefficients, coprime to their numerators."""
        return self._den

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[JetVariable]:
        """The jet variables that occur; coordinates are not variables."""
        seen: set[_Factor] = set()
        for flat in self._terms:
            seen.update(flat)
        seen.difference_update(_COORDINATES.values())
        return seen

    def base_variables(self) -> set[VariableId]:
        return {jv.var for jv in self.variables()}

    def max_jet_order(self) -> int:
        orders = [jv.mi.order for jv in self.variables()]
        return max(orders, default=0)

    def parity(self) -> Parity | None:
        """EVEN/ODD for homogeneous polynomials, None for mixed; zero is even."""
        seen: set[Parity] = set()
        for flat in self._terms:
            odd = sum(1 for f in flat if f.odd)
            seen.add(Parity(odd % 2))
            if len(seen) > 1:
                return None
        return seen.pop() if seen else Parity.EVEN

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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self, other))

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial.from_accumulator(
            {flat: -n for flat, n in self._terms.items()}, self._den
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self,), (other,))

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        acc: dict[_Flat, int] = {}
        right = other._terms.items()
        for fa, na in self._terms.items():
            for fb, nb in right:
                sign, merged = _merge_flat(fa, fb)
                if merged is None:
                    continue
                n = na * nb
                cur = acc.get(merged)
                if sign < 0:
                    acc[merged] = -n if cur is None else cur - n
                else:
                    acc[merged] = n if cur is None else cur + n
        return GradedPolynomial.from_accumulator(acc, self._den * other._den)

    def __pow__(self, exponent: int) -> "GradedPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = GradedPolynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def scaled(self, q: Fraction | int) -> "GradedPolynomial":
        num = q.numerator
        return GradedPolynomial.from_accumulator(
            {flat: n * num for flat, n in self._terms.items()},
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
    den = 1
    for p, _ in parts:
        if p._den != 1:
            den = lcm(den, p._den)
    acc: dict[_Flat, int] = {}
    for p, sign in parts:
        m = sign * (den // p._den)
        if m == 1 and not acc:
            acc.update(p._terms)
            continue
        for flat, n in p._terms.items():
            n *= m
            cur = acc.get(flat)
            acc[flat] = n if cur is None else cur + n
    return GradedPolynomial.from_accumulator(acc, den)


def gp_normalize(
    raw_terms: Iterable[tuple[Fraction | int, Sequence[_Factor]]],
) -> GradedPolynomial:
    """Canonicalize a raw term list: sort factors, track signs, merge terms.

    Each raw term is (coefficient, factor sequence) with factors in any order
    and with repeats spelled out; odd repeats annihilate the term.  Factors
    are folded in one at a time through the product merge, so the sign and
    the zero rule are exactly those of multiplication.
    """
    merged: list[tuple[_Flat, Fraction | int]] = []
    for coeff, factors in raw_terms:
        sign, flat = 1, ()
        for f in factors:
            step, flat = _merge_flat(flat, (f,))
            if flat is None:
                break
            sign *= step
        if flat is not None and coeff:
            merged.append((flat, coeff if sign > 0 else -coeff))
    den = lcm(*(q.denominator for _, q in merged))
    acc: dict[_Flat, int] = {}
    for flat, q in merged:
        n = q.numerator * (den // q.denominator)
        cur = acc.get(flat)
        acc[flat] = n if cur is None else cur + n
    return GradedPolynomial.from_accumulator(acc, den)


@dataclass(frozen=True)
class Density:
    """A horizontal density: coefficient of the volume form omega."""

    expr: GradedPolynomial


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
        parts.append(str(mag))
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
