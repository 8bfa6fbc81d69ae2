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
result, and a whole sum of weighted products (gp_sum_of_products, the one
sum kernel, whose add loop + and - run too) or of total derivatives
(gp_sum_of_derivatives) is one result; reduced Fractions are built only
when coefficients are observed.
The order of the monomials is likewise only materialized when it is
observed, by raw_terms() and rendering; arithmetic works on an unordered
term map.  Its keys are interned Monomials, which remember their products,
partials and total-derivative images d_Lam along any multi-index Lam up to
MEMO_CAP entries in all, so a repeated product or derivative of a monomial
costs one lookup.  Every derivative sum reads those images: the sums of
d_Lam (gp_sum_of_derivatives), and E_A = sum (-1)^|Lam| d_Lam(dL/dA_Lam)
for every variable A at once (_all_variational), which a polynomial keeps
in its _el map (euler_lagrange_map), so E_A of one polynomial is computed
once per jet-order bound however often it is asked for.  No image is built
past the bound in force, and a kept map is valid for the bound it was made
under: a read under another bound makes it again.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .config import max_jet_order
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


_VARIABLE_IDS: dict[tuple, "VariableId"] = {}


class VariableId(Record):
    """One concrete component of a declared variable family.

    Variables are interned like jet variables: equal fields give the one
    shared instance, so equality is identity and the hash is the identity
    hash, and the table holds each variable for the life of the process.
    `rank` orders variables canonically and is computed once, on first
    construction.  The order of a set of variables is that of their
    addresses, so output must sort variables by `rank`, never read a set's
    order.
    """

    kind: Kind
    name: str
    components: tuple[int, ...]
    parity: Parity
    stage: int | None = None

    __slots__ = ("rank",)

    def __new__(cls, kind, name, components, parity, stage=None) -> "VariableId":
        key = (kind, name, components, parity, stage)
        self = _VARIABLE_IDS.get(key)
        if self is None:
            if stage is not None and kind in (Kind.FIELD, Kind.ANTIFIELD):
                raise ValueError("only ghosts and antighosts carry a stage")
            self = _VARIABLE_IDS[key] = object.__new__(cls)
            Record.__init__(self, *key)
            object.__setattr__(self, "rank", _kind_rank(kind, stage) + (name, components))
        return self

    # __new__ returns the instance built; Record.__init__ must not run again
    __init__ = object.__init__
    # equal fields are the same instance
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


_INTERNED: dict[tuple[VariableId, MultiIndex], "JetVariable"] = {}


class JetVariable:
    """A variable differentiated along a multi-index, e.g. y_(0,1).

    Jet variables are interned: JetVariable(var, mi) returns the one shared
    instance for (var, mi), so equality is identity and the hash is
    the identity hash.  The intern table holds its instances for the life of
    the process; it grows to at most the declared variable components times
    the multi-indices up to the jet-order bound, per theory.  `key` orders
    variables canonically and `odd` is the parity as a plain flag.  Its
    rendered text is kept on first use (render_jet_variable): `_text1` in
    dimension 1, `_text2` in dimension 2 and up.
    """

    __slots__ = ("var", "mi", "key", "odd", "_raised", "_text1", "_text2")

    def __new__(cls, var: VariableId, mi: MultiIndex = EMPTY) -> "JetVariable":
        ident = (var, mi)
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
            self._text1 = self._text2 = None
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

    def __reduce__(self) -> tuple:
        return (JetVariable, (self.var, self.mi))

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

    def __reduce__(self) -> tuple:
        return (Coordinate, (self.k,))

    def __repr__(self) -> str:
        return f"Coordinate({self.k})"


# --------------------------------------------------------------------------
# Interned monomials and their memoized kernels.

_Factor = Coordinate | JetVariable
_Flat = tuple[_Factor, ...]

MEMO_CAP = 1 << 16
"""Most memo entries that all monomials together hold.

An entry is one remembered product (left, right), one total-derivative
image (monomial, Lam) or one monomial's partials; an image along two or
more directions also makes the one-direction images it is composed from,
each an entry of its own.  Entries live until the count reaches MEMO_CAP;
the next entry first clears every memo at once (clear_memos), so the memos
never hold more than MEMO_CAP entries.  A workload whose distinct products,
images and partials fit under the cap computes each of them once for the
life of the process.
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
    (0, None) when an odd factor repeats; each direction, and each tuple
    of two or more, to the total-derivative image, as (multiplier,
    monomial) pairs; and None to the partials (see _drop_flat).
    """

    __slots__ = ("factors", "odd", "jets", "top", "_memo")

    def __new__(cls, factors: _Flat) -> "Monomial":
        self = _MONOMIALS.get(factors)
        if self is None:
            coords, jets = _split(factors)
            odd = sum([f.odd for f in factors])
            self = _interned(factors, odd, _top(jets), len(coords))
        return self

    def times(self, other: "Monomial") -> tuple[int, "Monomial | None"]:
        """(sign, self * other), or (0, None) when an odd factor repeats."""
        hit = self._memo.get(other)
        if hit is None:
            a, b = self.factors, other.factors
            sign, flat = _merge_flat(a, b, self.odd, other.odd)
            if flat is None:
                hit = (0, None)
            else:
                got = _MONOMIALS.get(flat)
                if got is None:
                    ncoords = len(a) - len(self.jets) + len(b) - len(other.jets)
                    top = max(self.top, other.top)
                    got = _interned(flat, self.odd + other.odd, top, ncoords)
                hit = (sign, got)
            _remember(self, other, hit)
        return hit

    def image(self, lam: "int | tuple[int, ...]") -> tuple[tuple[int, "Monomial"], ...]:
        """The total derivative d_lam, as (multiplier, monomial) pairs.

        lam is one direction, or a tuple of two or more (see _image_along);
        the image is kept under lam.  Only jet variables already within the
        bound in force are raised, so the caller checks the jet-order bound
        before asking.
        """
        hit = self._memo.get(lam)
        if hit is None:
            hit = _derive_flat(self, lam) if lam.__class__ is int else _image_along(self, lam)
            _remember(self, lam, hit)
        return hit

    def partials(self) -> tuple[tuple[JetVariable, "Monomial", int, int], ...]:
        """The jet factors with what dropping them leaves; see _drop_flat."""
        hit = self._memo.get(None)
        if hit is None:
            hit = _drop_flat(self)
            _remember(self, None, hit)
        return hit

    def __reduce__(self) -> tuple:
        return (Monomial, (self.factors,))

    def __repr__(self) -> str:
        return f"Monomial({self.factors!r})"


def _interned(flat: _Flat, odd: int, top: int, ncoords: int) -> Monomial:
    """Intern the monomial of a canonical factor tuple not interned yet.

    odd, top and ncoords (the number of leading coordinates) are what
    Monomial(flat) would scan from flat; a kernel takes them from its
    operands, and only on a miss of the intern table.
    """
    self = _MONOMIALS[flat] = object.__new__(Monomial)
    self.factors = flat
    self.odd = odd
    self.jets = flat[ncoords:]
    self.top = top
    self._memo = _NO_MEMO
    return self


def _top(jets: _Flat) -> int:
    """The highest jet order among jet factors, -1 without any."""
    return max([len(f.mi.entries) for f in jets], default=-1)


def _remember(m: Monomial, key: "Monomial | int | tuple | None", value: tuple) -> None:
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
        "images": keys.count(int) + keys.count(tuple),
        "partials": keys.count(type(None)),
    }


def _merge_flat(a: _Flat, b: _Flat, odd_a: int, odd_b: int) -> tuple[int, _Flat | None]:
    """Merge two canonical factor tuples, tracking the Koszul sign.

    odd_a and odd_b are the numbers of odd factors in a and b.  When one
    tuple sorts wholly before the other, the result is their concatenation:
    a + b keeps the sign and vanishes only if an odd factor ends a and
    starts b, and b + a moves each odd factor of b past each one of a.
    """
    if not a or not b:
        return 1, a + b
    if a[-1].key <= b[0].key:
        return (0, None) if a[-1] is b[0] and b[0].odd else (1, a + b)
    if b[-1].key < a[0].key:
        return (-1 if odd_a & odd_b & 1 else 1), b + a
    out: list[_Factor] = []
    sign = 1
    i = j = 0  # from here on, odd_a counts the odd factors in a[i:]
    while i < len(a) and j < len(b):
        if a[i].key <= b[j].key:
            if a[i].odd:
                odd_a -= 1
            out.append(a[i])
            i += 1
        else:
            if b[j].odd and (odd_a & 1):
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    for u, v in zip(out, out[1:]):
        if u is v and u.odd:
            return 0, None
    return sign, tuple(out)


def _derive_flat(m: Monomial, direction: int) -> tuple[tuple[int, Monomial], ...]:
    """The total derivative of one canonical term, as (multiplier, monomial).

    Each factor x^direction is dropped once; other coordinates stay.
    Raising jet factor i keeps the others in place: the raised factor only
    moves right past the factors of its own variable with a smaller key,
    picking up the sign of the odd factors it passes, and the term vanishes
    if an odd raised factor lands on an equal one.  A run of equal factors
    (only even ones repeat) gives one result, with its power as multiplier.
    Each result has m's number of odd factors; a raise may lift its top order.
    """
    flat, odd, top = m.factors, m.odd, m.top
    n = len(flat)
    ncoords = n - len(m.jets)
    out: list[tuple[int, Monomial]] = []
    end = 0
    for f, power in _runs(flat):
        i, end = end, end + power
        if i < ncoords:
            if f.k == direction:
                rest = flat[:i] + flat[i + 1 :]
                got = _MONOMIALS.get(rest) or _interned(rest, odd, top, ncoords - 1)
                out.append((power, got))
            continue
        up = f._raised.get(direction)
        if up is None:
            up = f.raised(direction)
        key = up.key
        j = end
        passed = 0
        while j < n and flat[j].key < key:
            passed += flat[j].odd
            j += 1
        if up.odd:
            if j < n and flat[j] is up:
                continue
            if passed & 1:
                power = -1
        raised = flat[:i] + flat[i + 1 : j] + (up,) + flat[j:]
        order = len(up.mi.entries)
        got = _MONOMIALS.get(raised) or _interned(raised, odd, max(order, top), ncoords)
        out.append((power, got))
    return tuple(out)


def _drop_flat(m: Monomial) -> tuple[tuple[JetVariable, Monomial, int, int], ...]:
    """Each jet factor of a canonical term with the term it leaves, and signs.

    Dropping one factor from a canonical term leaves a canonical term, so
    only the Koszul sign needs tracking: an odd variable's derivative passes
    the odd factors on its left (left partial) or on its right (right
    partial).  Entries are (jet, rest, left multiplier, right multiplier); a
    repeated even factor appears once, with its power as both multipliers.
    The rest is rescanned for its top order only when the jet held m's top.
    """
    flat, odd, top = m.factors, m.odd, m.top
    ncoords = len(flat) - len(m.jets)
    out = []
    odd_before = 0
    end = ncoords
    for f, power in _runs(m.jets):
        i, end = end, end + power
        left = right = power
        if f.odd:
            if odd_before & 1:
                left = -1
            if (odd - odd_before - 1) & 1:
                right = -1
            odd_before += 1
        rest = flat[:i] + flat[i + 1 :]
        got = _MONOMIALS.get(rest)
        if got is None:
            rest_top = top if len(f.mi.entries) < top else _top(rest[ncoords:])
            got = _interned(rest, odd - f.odd, rest_top, ncoords)
        out.append((f, got, left, right))
    return tuple(out)


def _image_along(m: Monomial, lam: tuple[int, ...]) -> tuple[tuple[int, Monomial], ...]:
    """d_lam of m for two or more directions, as (multiplier, monomial) pairs.

    One direction at a time: each step adds the last step's monomials'
    one-direction images into one map (_images_into) and drops its zeros.
    """
    step = {m: 1}
    for direction in lam:
        acc: dict[Monomial, int] = {}
        _images_into(acc, step, (direction,), 1)
        step = {q: n for q, n in acc.items() if n}
    return tuple([(n, q) for q, n in step.items()])


def _all_variational(
    terms: Mapping[Monomial, int], den: int, bound: int
) -> "Mapping[VariableId, GradedPolynomial] | None":
    """E_A of a numerator map over den for every variable A of its jet
    factors, in one pass: each monomial's left partial by A_Lam adds
    (-1)^|Lam| times its rest, or the rest's image along Lam, into A's map.
    Such a raise reaches rest.top + |Lam| when the rest has jets, and a
    raise step never cancels the terms of the highest order, so the
    step-by-step path passes the bound exactly when such a raise does:
    None then, before any image past the bound is built.
    """
    acc: dict[VariableId, dict[Monomial, int]] = {}
    for m, s in terms.items():
        drops = m._memo.get(None)
        if drops is None:
            drops = m.partials()
        for f, rest, on_left, _ in drops:
            bucket = acc.get(f.var)
            if bucket is None:
                bucket = acc[f.var] = {}
            lam = f.mi.entries
            s_rest = -s * on_left if len(lam) & 1 else s * on_left
            if not lam:
                cur = bucket.get(rest)
                bucket[rest] = s_rest if cur is None else cur + s_rest
                continue
            if rest.top >= 0 and rest.top + len(lam) > bound:
                return None
            key = lam[0] if len(lam) == 1 else lam
            image = rest._memo.get(key)
            if image is None:
                image = rest.image(key)
            for c, r in image:
                n = c * s_rest
                cur = bucket.get(r)
                bucket[r] = n if cur is None else cur + n
    return MappingProxyType({v: GradedPolynomial._from_terms(b, den) for v, b in acc.items()})


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
    is observed (raw_terms and rendering), afresh on each observation, and
    is not stored.  The partial-derivative maps and the Euler-Lagrange map
    _el are filled on first use only, _el with the jet-order bound it is
    valid for; they are derived from (_den, map), so equality, hashing and
    pickling never look at them.
    """

    __slots__ = ("_terms", "_den", "_left", "_right", "_el")

    def __init__(self, terms: Mapping[_Flat, Fraction | int] | None = None):
        # factors in any order, canonicalized as gp_normalize does
        self._take(*_fold([(q, f) for f, q in terms.items()] if terms else ()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GradedPolynomial is immutable")

    def __reduce__(self) -> tuple:
        # the partial and Euler-Lagrange maps are derived, so they are rebuilt on use
        return (GradedPolynomial._from_terms, (dict(self._terms), self._den))

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
        """The (factors, reduced Fraction) pairs in canonical order, sorted
        on each call."""
        den = self._den
        ordered = sorted(self._terms.items(), key=_term_order)
        return tuple([(m.factors, Fraction(n, den)) for m, n in ordered])

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

    def euler_lagrange_map(self) -> "Mapping[VariableId, GradedPolynomial] | None":
        """E_A for every variable A of the jet factors, keyed by A, or None
        when a raise would pass the jet-order bound in force (see
        _all_variational).  Kept in _el with the bound it was made under, for
        which alone it is valid: a read under another bound makes it again."""
        bound = max_jet_order()
        kept = getattr(self, "_el", None)
        if kept is None or kept[0] != bound:
            kept = (bound, _all_variational(self._terms, self._den, bound))
            object.__setattr__(self, "_el", kept)
        return kept[1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return _plus(self, other, 1)

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial._from_terms(
            {m: -n for m, n in self._terms.items()}, self._den
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return _plus(self, other, -1)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        # the one-pair case of gp_sum_of_products, run on its loop directly:
        # the kernel's pass over its products is a large share of a small product
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


def _plus(a: GradedPolynomial, b: GradedPolynomial, sign: int) -> GradedPolynomial:
    """a + sign * b, run on gp_sum_of_products' add loop directly: each
    summand's numerators are scaled by one multiplier to the lcm of the two
    denominators."""
    den = lcm(a._den, b._den)
    acc: dict[Monomial, int] = {}
    _add_into(acc, a._terms, den // a._den)
    _add_into(acc, b._terms, sign * (den // b._den))
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
    products: Iterable[tuple[Sequence[GradedPolynomial], Fraction | int]],
) -> GradedPolynomial:
    """The sum of weight * f1 * ... * fn over products (factors, weight),
    canonicalized once: the one kernel that adds up a sum.

    Factors keep their order, so Koszul signs are those of f1 * ... * fn;
    a weight is an int or a Fraction.  Leading factors are multiplied by
    balanced pairing of adjacent ones, so n factors merge O(n log n)
    factors, not O(n^2), down to a last pair whose term products go
    straight into one numerator map over the lcm of the products'
    denominators.  A lone factor is added term by term, once, with the sum
    of the weights of the products where it stands alone; a product of none
    adds its weight to the constant term.
    """
    # (a, b, weight numerator, den) per product: b is None for a lone factor
    # a, and a and b are None for a product of none
    todo, dens = [], []
    # a lone factor's id -> [factor, summed weight], made when one arrives;
    # keyed by identity, as a polynomial's own hash reads every term
    lone: dict[int, list] | None = None
    for factors, weight in products:
        if len(factors) != 2:
            if len(factors) == 1:
                f = factors[0]
                if lone is None:
                    lone = {}
                hit = lone.get(id(f))
                if hit is None:
                    lone[id(f)] = [f, weight]
                else:
                    hit[1] += weight
                continue
            while len(factors) > 2:
                pairs = iter(factors)
                factors = [*map(GradedPolynomial.__mul__, pairs, pairs),
                           *factors[len(factors) & -2:]]
            if not factors:
                dens.append(weight.denominator)
                todo.append((None, None, weight.numerator, weight.denominator))
                continue
        a, b = factors
        den = a._den * b._den
        if weight.__class__ is not int:  # an int is its own numerator, over 1
            den *= weight.denominator
            weight = weight.numerator
        dens.append(den)
        todo.append((a, b, weight, den))
    if lone:
        for f, weight in lone.values():
            den = weight.denominator * f._den
            dens.append(den)
            todo.append((f, None, weight.numerator, den))
    den = lcm(*dens)
    acc: dict[Monomial, int] = {}
    for a, b, n, d in todo:
        if b is not None:
            _multiply_into(acc, a, b, n * (den // d))
        elif a is not None:
            _add_into(acc, a._terms, n * (den // d))
        else:
            acc[_ONE] = acc.get(_ONE, 0) + n * (den // d)
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
    weight an int or a Fraction.  Each item adds its images (_images_into)
    into one numerator map over the lcm of the items' denominators.
    """
    items = list(items)
    den = lcm(*[p._den * w.denominator for p, _, w in items])
    acc: dict[Monomial, int] = {}
    for p, lam, w in items:
        _images_into(acc, p._terms, lam, w.numerator * (den // (p._den * w.denominator)))
    return GradedPolynomial._from_terms(acc, den)


def total_derivative(p: GradedPolynomial, direction: int) -> GradedPolynomial:
    """The total derivative d_direction of p: the one-item case of
    gp_sum_of_derivatives, run on its loop directly."""
    acc: dict[Monomial, int] = {}
    _images_into(acc, p._terms, (direction,), 1)
    return GradedPolynomial._from_terms(acc, p._den)


def _images_into(
    acc: dict[Monomial, int], terms: Mapping[Monomial, int], lam: Sequence[int], k: int
) -> None:
    """Add k times d_Lam of a numerator map without zeros to acc, from each
    monomial's memoized image along Lam (Monomial.image).  The jet-order
    bound is checked first, as a step-by-step d_Lam checks it: a raise step
    never cancels the terms of the highest order, so step i from the top
    order t reaches t + i, and the JetOrderError names max(t, bound) + 1.
    So an image is read only within the bound in force, whatever the bound
    it was kept under.
    """
    if not lam:
        _add_into(acc, terms, k)
        return
    top = max([m.top for m in terms], default=-1)
    if top >= 0:
        for order in range(top + 1, top + len(lam) + 1):
            check_jet_order(order)
    key = lam[0] if len(lam) == 1 else tuple(lam)
    for m, s in terms.items():
        image = m._memo.get(key)
        if image is None:
            image = m.image(key)
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


# --------------------------------------------------------------------------
# Deterministic text rendering.  The forms produced here are exactly what
# the theory-file grammar accepts, so render/parse round-trips are stable.
# Terms that share their jet part render as one term whose coefficient is
# the sum of their coordinate monomials, e.g. (2 + x0)*y.


def coordinate_token(k: int, dim: int) -> str:
    return "x" if dim == 1 else f"x{k}"


def render_jet_variable(jv: JetVariable, dim: int) -> str:
    """jv's text in dimension dim, kept on jv once made."""
    text = jv._text1 if dim == 1 else jv._text2
    if text is not None:
        return text
    prefix = "~" if jv.var.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST) else ""
    comps = ",".join(str(c) for c in jv.var.components)
    dirs = ",".join(coordinate_token(d, dim) for d in jv.mi.entries)
    if jv.mi.order:
        text = f"{prefix}{jv.var.name}[{comps};{dirs}]"
    elif comps:
        text = f"{prefix}{jv.var.name}[{comps}]"
    else:
        text = prefix + jv.var.name
    if dim == 1:
        jv._text1 = text
    else:
        jv._text2 = text
    return text


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
    coords: _Flat, n: int, den: int, dim: int
) -> tuple[int, list[str]]:
    """Sign and factor strings for one coordinate monomial, of coefficient
    n / den (abs value, reduced)."""
    mag = abs(n)
    parts: list[str] = []
    if mag != den or not coords:
        g = gcd(mag, den)
        try:
            parts.append(str(mag // g) if g == den else f"{mag // g}/{den // g}")
        except ValueError:
            raise NktError(too_many_digits("a coefficient")) from None
    for c, exp in _runs(coords):
        parts.append(_power(coordinate_token(c.k, dim), exp))
    return (-1 if n < 0 else 1), parts


def _term_signed_body(
    jets: _Flat, coefficient: list[tuple[_Flat, int]], den: int, dim: int
) -> tuple[int, str]:
    factor_parts = [_power(render_jet_variable(jv, dim), e) for jv, e in _runs(jets)]
    if len(coefficient) == 1:
        ((coords, n),) = coefficient
        sign, coeff_parts = _coordinate_monomial_parts(coords, n, den, dim)
        if factor_parts and coeff_parts == ["1"]:
            coeff_parts = []
        return sign, "*".join(coeff_parts + factor_parts)
    inner = _join_signed(
        (sign, "*".join(parts))
        for sign, parts in (
            _coordinate_monomial_parts(coords, n, den, dim) for coords, n in coefficient
        )
    )
    return 1, "*".join([f"({inner})"] + factor_parts)


def render_polynomial(p: GradedPolynomial, dim: int) -> str:
    """p's canonical text: its terms in raw_terms() order, each coefficient
    written from its int numerator over p's denominator."""
    if p.is_zero():
        return "0"
    groups: list[tuple[_Flat, list[tuple[_Flat, int]]]] = []
    terms = p._terms.items()
    for m, n in sorted(terms, key=_term_order) if len(terms) > 1 else terms:
        term = (m.factors[: len(m.factors) - len(m.jets)], n)
        if groups and groups[-1][0] == m.jets:
            groups[-1][1].append(term)
        else:
            groups.append((m.jets, [term]))
    den = p._den
    return _join_signed(
        _term_signed_body(jets, coefficient, den, dim) for jets, coefficient in groups
    )
