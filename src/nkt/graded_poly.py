"""Canonical polynomial algebra over even and odd jet variables.

Every expression the package manipulates is a GradedPolynomial: a finite sum
of monomials, each an exact-rational polynomial in the base coordinates times
a product of jet variables.  Normalization sorts factors into the canonical
variable order, tracking the Koszul sign for each transposition of two odd
factors and killing any monomial in which an odd variable repeats.  Two
expressions are equal iff their canonical forms are identical, so equality,
hashing and rendering are all decidable and deterministic.  The order of the
monomials themselves is only materialized when it is observed, by
raw_terms() and rendering; arithmetic works on an unordered term map.
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
# Scalars: exact rational polynomials in the base coordinates x^0..x^{n-1}.

_Exps = tuple[tuple[int, int], ...]  # ((coordinate, exponent), ...) sorted


class Scalar:
    """Polynomial in the base coordinates with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[_Exps, Fraction] | None = None):
        cleaned: dict[_Exps, Fraction] = {}
        if terms:
            for exps, q in terms.items():
                if q:
                    cleaned[exps] = q
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _canonical(cls, terms: tuple[tuple[_Exps, Fraction], ...]) -> "Scalar":
        """A scalar from terms already sorted, each with a nonzero coefficient."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({(): Fraction(1)})

    @classmethod
    def of(cls, q: Fraction | int) -> "Scalar":
        return cls({(): Fraction(q)})

    @classmethod
    def coordinate(cls, k: int, exponent: int = 1) -> "Scalar":
        if exponent == 0:
            return cls.one()
        return cls({((k, exponent),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(exps == () for exps, _ in self.terms)

    def constant_value(self) -> Fraction | None:
        """The Fraction value if this scalar is a plain number, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            q = a[0][1] + b[0][1]
            return Scalar._canonical(((a[0][0], q),) if q else ())
        acc = dict(a)
        for exps, q in b:
            cur = acc.get(exps)
            acc[exps] = q if cur is None else cur + q
        return Scalar(acc)

    def __neg__(self) -> "Scalar":
        return Scalar._canonical(tuple((exps, -q) for exps, q in self.terms))

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            q = a[0][1] - b[0][1]
            return Scalar._canonical(((a[0][0], q),) if q else ())
        acc = dict(a)
        for exps, q in b:
            cur = acc.get(exps)
            acc[exps] = -q if cur is None else cur - q
        return Scalar(acc)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0] == ():
            return Scalar._canonical((((), a[0][1] * b[0][1]),))
        acc: dict[_Exps, Fraction] = {}
        for e1, q1 in self.terms:
            for e2, q2 in other.terms:
                merged: dict[int, int] = dict(e1)
                for coord, exp in e2:
                    merged[coord] = merged.get(coord, 0) + exp
                key = tuple(sorted(merged.items()))
                cur = acc.get(key)
                acc[key] = q1 * q2 if cur is None else cur + q1 * q2
        return Scalar(acc)

    def scaled(self, q: Fraction | int) -> "Scalar":
        q = Fraction(q)
        return Scalar({exps: c * q for exps, c in self.terms})

    def diff(self, direction: int) -> "Scalar":
        """Partial derivative along one base coordinate."""
        acc: dict[_Exps, Fraction] = {}
        for exps, q in self.terms:
            for i, (coord, exp) in enumerate(exps):
                if coord != direction:
                    continue
                rest = exps[:i] + ((coord, exp - 1),) + exps[i + 1 :]
                rest = tuple(p for p in rest if p[1] != 0)
                acc[rest] = acc.get(rest, Fraction(0)) + q * exp
        return Scalar(acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Scalar({dict(self.terms)!r})"


# --------------------------------------------------------------------------
# Graded monomials and polynomials.


def _sort_flat(factors: Sequence[JetVariable]) -> tuple[int, tuple[JetVariable, ...] | None]:
    """Stable-sort factors into canonical order.

    Returns (sign, sorted factors); sign is -1 per odd-odd transposition and
    the factors are None when an odd variable repeats (the monomial is zero).
    """
    out: list[JetVariable] = []
    sign = 1
    for f in factors:
        i = len(out)
        while i > 0 and out[i - 1].key > f.key:
            i -= 1
        if f.odd:
            crossings = sum(1 for g in out[i:] if g.odd)
            if crossings & 1:
                sign = -sign
        out.insert(i, f)
    for a, b in zip(out, out[1:]):
        if a is b and a.odd:
            return 0, None
    return sign, tuple(out)


def _merge_flat(
    a: tuple[JetVariable, ...], b: tuple[JetVariable, ...]
) -> tuple[int, tuple[JetVariable, ...] | None]:
    """Merge two canonical factor tuples, tracking the Koszul sign."""
    out: list[JetVariable] = []
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


_Flat = tuple[JetVariable, ...]


def _all_partials(
    terms: Mapping[_Flat, Scalar], right: bool
) -> Mapping[JetVariable, "GradedPolynomial"]:
    """Every graded partial of a canonical term map, in one pass over it.

    Dropping one factor from a canonical term leaves a canonical term, so
    only the Koszul sign needs tracking: an odd variable's derivative passes
    the odd factors on its left (left partial) or on its right (right
    partial).  A repeated even factor contributes once per occurrence.
    """
    acc: dict[JetVariable, dict[_Flat, Scalar]] = {}
    for flat, s in terms.items():
        odd = [jv.odd for jv in flat]
        odd_before = 0
        odd_after = sum(odd)
        for i, jv in enumerate(flat):
            contrib = s
            if odd[i]:
                odd_after -= 1
                if (odd_after if right else odd_before) & 1:
                    contrib = -s
                odd_before += 1
            rest = flat[:i] + flat[i + 1 :]
            bucket = acc.get(jv)
            if bucket is None:
                bucket = acc[jv] = {}
            cur = bucket.get(rest)
            bucket[rest] = contrib if cur is None else cur + contrib
    return MappingProxyType(
        {jv: GradedPolynomial.from_accumulator(b) for jv, b in acc.items()}
    )


def _term_order(term: tuple[_Flat, Scalar]) -> list[tuple]:
    return [f.key for f in term[0]]


class GradedPolynomial:
    """Canonical sum of graded monomials; immutable.

    The terms live in a map from canonical factor tuple to nonzero Scalar.
    Equality compares the maps and the hash is independent of the order the
    map was filled in.  The canonical term order is built only when it is
    observed (raw_terms and rendering): the first observation refills the
    map in that order, so later ones need no sort.  The partial-derivative
    maps are filled on first use only; they are derived from the terms, so
    equality and hashing never look at them.
    """

    __slots__ = ("_terms", "_ordered", "_left", "_right")

    def __init__(self, terms: Mapping[_Flat, Scalar] | None = None):
        cleaned: dict[_Flat, Scalar] = {}
        if terms:
            for flat, s in terms.items():
                if not s.is_zero():
                    cleaned[flat] = s
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_accumulator(cls, acc: dict[_Flat, Scalar]) -> "GradedPolynomial":
        """Take over a map of canonical factor tuples to Scalars.

        Zero coefficients are deleted from acc in place; the caller must not
        touch acc afterwards.
        """
        dead = [flat for flat, s in acc.items() if not s.terms]
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
        return cls({(): Scalar.one()})

    @classmethod
    def scalar(cls, s: Scalar | Fraction | int) -> "GradedPolynomial":
        if not isinstance(s, Scalar):
            s = Scalar.of(s)
        return cls({(): s})

    @classmethod
    def coordinate(cls, k: int) -> "GradedPolynomial":
        return cls({(): Scalar.coordinate(k)})

    @classmethod
    def variable(cls, v: JetVariable | VariableId) -> "GradedPolynomial":
        if isinstance(v, VariableId):
            v = JetVariable(v)
        return cls({(v,): Scalar.one()})

    # -- views -------------------------------------------------------------

    def raw_terms(self) -> tuple[tuple[_Flat, Scalar], ...]:
        """The (factors, coefficient) pairs in canonical order."""
        try:
            self._ordered
        except AttributeError:
            ordered = dict(sorted(self._terms.items(), key=_term_order))
            object.__setattr__(self, "_terms", ordered)
            object.__setattr__(self, "_ordered", True)
        return tuple(self._terms.items())

    def items(self) -> Iterable[tuple[_Flat, Scalar]]:
        """The (factors, coefficient) pairs in no particular order."""
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[JetVariable]:
        seen: set[JetVariable] = set()
        for flat in self._terms:
            seen.update(flat)
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
            {flat: -s for flat, s in self._terms.items()}
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return gp_sum((self,), (other,))

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        acc: dict[_Flat, Scalar] = {}
        right = other._terms.items()
        for fa, sa in self._terms.items():
            for fb, sb in right:
                sign, merged = _merge_flat(fa, fb)
                if merged is None:
                    continue
                s = sa * sb
                cur = acc.get(merged)
                if sign < 0:
                    acc[merged] = -s if cur is None else cur - s
                else:
                    acc[merged] = s if cur is None else cur + s
        return GradedPolynomial.from_accumulator(acc)

    def __pow__(self, exponent: int) -> "GradedPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = GradedPolynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def scaled(self, q: Fraction | int | Scalar) -> "GradedPolynomial":
        if isinstance(q, Scalar):
            return GradedPolynomial.from_accumulator(
                {flat: s * q for flat, s in self._terms.items()}
            )
        q = Fraction(q)
        return GradedPolynomial.from_accumulator(
            {flat: s.scaled(q) for flat, s in self._terms.items()}
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
    acc: dict[_Flat, Scalar] = {}
    for p in polys:
        for flat, s in p._terms.items():
            cur = acc.get(flat)
            acc[flat] = s if cur is None else cur + s
    for p in negated:
        for flat, s in p._terms.items():
            cur = acc.get(flat)
            acc[flat] = -s if cur is None else cur - s
    return GradedPolynomial.from_accumulator(acc)


def gp_normalize(
    raw_terms: Iterable[tuple[Scalar | Fraction | int, Sequence[JetVariable]]],
) -> GradedPolynomial:
    """Canonicalize a raw term list: sort factors, track signs, merge terms.

    Each raw term is (coefficient, factor sequence) with factors in any order
    and with repeats spelled out; odd repeats annihilate the term.
    """
    acc: dict[_Flat, Scalar] = {}
    for coeff, factors in raw_terms:
        if not isinstance(coeff, Scalar):
            coeff = Scalar.of(coeff)
        sign, flat = _sort_flat(tuple(factors))
        if flat is None or coeff.is_zero():
            continue
        if sign < 0:
            coeff = -coeff
        cur = acc.get(flat)
        acc[flat] = coeff if cur is None else cur + coeff
    return GradedPolynomial.from_accumulator(acc)


@dataclass(frozen=True)
class Density:
    """A horizontal density: coefficient of the volume form omega."""

    expr: GradedPolynomial

    def is_even(self) -> bool:
        return self.expr.parity() is Parity.EVEN

    def __add__(self, other: "Density") -> "Density":
        return Density(self.expr + other.expr)

    def __sub__(self, other: "Density") -> "Density":
        return Density(self.expr - other.expr)


# --------------------------------------------------------------------------
# Deterministic text rendering.  The forms produced here are exactly what
# the theory-file grammar accepts, so render/parse round-trips are stable.


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


def _render_fraction(q: Fraction) -> str:
    return str(q)


def _scalar_monomial_parts(exps: _Exps, q: Fraction, dim: int) -> tuple[int, list[str]]:
    """Sign and factor strings for one scalar monomial (abs value)."""
    sign = -1 if q < 0 else 1
    mag = abs(q)
    parts: list[str] = []
    if mag != 1 or not exps:
        parts.append(_render_fraction(mag))
    for coord, exp in exps:
        tok = coordinate_token(coord, dim)
        parts.append(tok if exp == 1 else f"{tok}^{exp}")
    return sign, parts


def render_scalar(s: Scalar, dim: int) -> str:
    if s.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (exps, q) in enumerate(s.terms):
        sign, parts = _scalar_monomial_parts(exps, q, dim)
        body = "*".join(parts)
        if i == 0:
            chunks.append(("-" if sign < 0 else "") + body)
        else:
            chunks.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(chunks)


def _term_signed_body(flat_factors: _Flat, s: Scalar, dim: int) -> tuple[int, str]:
    factor_parts: list[str] = []
    packed: list[tuple[JetVariable, int]] = []
    for f in flat_factors:
        if packed and packed[-1][0] == f:
            packed[-1] = (f, packed[-1][1] + 1)
        else:
            packed.append((f, 1))
    for jv, exp in packed:
        tok = render_jet_variable(jv, dim)
        factor_parts.append(tok if exp == 1 else f"{tok}^{exp}")

    if len(s.terms) == 1:
        exps, q = s.terms[0]
        sign, parts = _scalar_monomial_parts(exps, q, dim)
        coeff_parts = parts
        if factor_parts and coeff_parts == ["1"]:
            coeff_parts = []
        return sign, "*".join(coeff_parts + factor_parts)
    body = f"({render_scalar(s, dim)})"
    if factor_parts:
        body += "*" + "*".join(factor_parts)
    return 1, body


def render_polynomial(p: GradedPolynomial, dim: int) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (flat, s) in enumerate(p.raw_terms()):
        sign, body = _term_signed_body(flat, s, dim)
        if i == 0:
            chunks.append(("-" if sign < 0 else "") + body)
        else:
            chunks.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(chunks)
