"""Canonical polynomial algebra over even and odd jet variables.

Every expression the package manipulates is a GradedPolynomial: a finite sum
of monomials, each a nonzero Fraction times a product of factors.  The
factors are base coordinates, which are even and sort first, and jet
variables.  Normalization sorts factors into the canonical order, tracking
the Koszul sign for each transposition of two odd factors and killing any
monomial in which an odd variable repeats.  Two expressions are equal iff
their canonical forms are identical, so equality, hashing and rendering are
all decidable and deterministic.  The order of the monomials themselves is
only materialized when it is observed, by raw_terms() and rendering;
arithmetic works on an unordered term map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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


def raised_jets(
    jets: Iterable[JetVariable], direction: int
) -> dict[JetVariable, JetVariable]:
    """Each jet variable raised once along direction, keyed by the original.

    The jet-order bound is checked once, on the highest raised order, so the
    error names the same order whatever order the jets come in.
    """
    jets = tuple(jets)
    if jets:
        check_jet_order(max(jv.mi.order for jv in jets) + 1)
    out: dict[JetVariable, JetVariable] = {}
    for jv in jets:
        up = jv._raised.get(direction)
        out[jv] = jv.raised(direction) if up is None else up
    return out


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
    terms: Mapping[_Flat, Fraction], right: bool
) -> Mapping[JetVariable, "GradedPolynomial"]:
    """Every graded partial of a canonical term map, in one pass over it.

    Dropping one factor from a canonical term leaves a canonical term, so
    only the Koszul sign needs tracking: an odd variable's derivative passes
    the odd factors on its left (left partial) or on its right (right
    partial).  A repeated even factor contributes once per occurrence.
    Coordinates are dropped like any even factor; their buckets are
    discarded at the end.
    """
    acc: dict[_Factor, dict[_Flat, Fraction]] = {}
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
            f: GradedPolynomial.from_accumulator(b)
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


def _term_order(term: tuple[_Flat, Fraction]) -> tuple[list[tuple], tuple]:
    # by jet part first, so terms sharing one are adjacent, then by the
    # coordinate exponents ((k, e), ...)
    coords, jets = _split(term[0])
    return [f.key for f in jets], tuple((c.k, e) for c, e in _runs(coords))


class GradedPolynomial:
    """Canonical sum of graded monomials; immutable.

    The terms live in a map from canonical factor tuple to nonzero Fraction.
    Equality compares the maps and the hash is independent of the order the
    map was filled in.  The canonical term order is built only when it is
    observed (raw_terms and rendering): the first observation refills the
    map in that order, so later ones need no sort.  The partial-derivative
    maps are filled on first use only; they are derived from the terms, so
    equality and hashing never look at them.
    """

    __slots__ = ("_terms", "_ordered", "_left", "_right")

    def __init__(self, terms: Mapping[_Flat, Fraction] | None = None):
        cleaned: dict[_Flat, Fraction] = {}
        if terms:
            for flat, q in terms.items():
                if q:
                    cleaned[flat] = q
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_accumulator(cls, acc: dict[_Flat, Fraction]) -> "GradedPolynomial":
        """Take over a map of canonical factor tuples to Fractions.

        Zero coefficients are deleted from acc in place; the caller must not
        touch acc afterwards.
        """
        dead = [flat for flat, q in acc.items() if not q]
        for flat in dead:
            del acc[flat]
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", acc)
        return out

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls({(): Fraction(1)})

    @classmethod
    def scalar(cls, q: Fraction | int) -> "GradedPolynomial":
        return cls({(): Fraction(q)})

    @classmethod
    def coordinate(cls, k: int) -> "GradedPolynomial":
        return cls({(Coordinate(k),): Fraction(1)})

    @classmethod
    def variable(cls, v: JetVariable | VariableId) -> "GradedPolynomial":
        if isinstance(v, VariableId):
            v = JetVariable(v)
        return cls({(v,): Fraction(1)})

    # -- views -------------------------------------------------------------

    def raw_terms(self) -> tuple[tuple[_Flat, Fraction], ...]:
        """The (factors, coefficient) pairs in canonical order."""
        try:
            self._ordered
        except AttributeError:
            ordered = dict(sorted(self._terms.items(), key=_term_order))
            object.__setattr__(self, "_terms", ordered)
            object.__setattr__(self, "_ordered", True)
        return tuple(self._terms.items())

    def items(self) -> Iterable[tuple[_Flat, Fraction]]:
        """The (factors, coefficient) pairs in no particular order."""
        return self._terms.items()

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
            out = _all_partials(self._terms, right=False)
            object.__setattr__(self, "_left", out)
            return out

    def right_partials(self) -> Mapping[JetVariable, "GradedPolynomial"]:
        """Right partial d/dv for every variable v that occurs, keyed by v."""
        try:
            return self._right
        except AttributeError:
            out = _all_partials(self._terms, right=True)
            object.__setattr__(self, "_right", out)
            return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self, other))

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial.from_accumulator(
            {flat: -q for flat, q in self._terms.items()}
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self,), (other,))

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        acc: dict[_Flat, Fraction] = {}
        right = other._terms.items()
        for fa, qa in self._terms.items():
            for fb, qb in right:
                sign, merged = _merge_flat(fa, fb)
                if merged is None:
                    continue
                q = qa * qb
                cur = acc.get(merged)
                if sign < 0:
                    acc[merged] = -q if cur is None else cur - q
                else:
                    acc[merged] = q if cur is None else cur + q
        return GradedPolynomial.from_accumulator(acc)

    def __pow__(self, exponent: int) -> "GradedPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = GradedPolynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def scaled(self, q: Fraction | int) -> "GradedPolynomial":
        q = Fraction(q)
        return GradedPolynomial.from_accumulator(
            {flat: c * q for flat, c in self._terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"GradedPolynomial<{len(self._terms)} terms>"


def gp_sum(
    polys: Iterable[GradedPolynomial], negated: Iterable[GradedPolynomial] = ()
) -> GradedPolynomial:
    """The sum of polys minus the sum of negated, canonicalized once."""
    acc: dict[_Flat, Fraction] = {}
    for p in polys:
        for flat, q in p._terms.items():
            cur = acc.get(flat)
            acc[flat] = q if cur is None else cur + q
    for p in negated:
        for flat, q in p._terms.items():
            cur = acc.get(flat)
            acc[flat] = -q if cur is None else cur - q
    return GradedPolynomial.from_accumulator(acc)


def gp_normalize(
    raw_terms: Iterable[tuple[Fraction | int, Sequence[_Factor]]],
) -> GradedPolynomial:
    """Canonicalize a raw term list: sort factors, track signs, merge terms.

    Each raw term is (coefficient, factor sequence) with factors in any order
    and with repeats spelled out; odd repeats annihilate the term.  Factors
    are folded in one at a time through the product merge, so the sign and
    the zero rule are exactly those of multiplication.
    """
    acc: dict[_Flat, Fraction] = {}
    for coeff, factors in raw_terms:
        sign, flat = 1, ()
        for f in factors:
            step, flat = _merge_flat(flat, (f,))
            if flat is None:
                break
            sign *= step
        if flat is None or not coeff:
            continue
        q = Fraction(coeff) if sign > 0 else -Fraction(coeff)
        cur = acc.get(flat)
        acc[flat] = q if cur is None else cur + q
    return GradedPolynomial.from_accumulator(acc)


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
