"""Differential tests: the fast kernels against their definitions.

The reference partials below are the per-variable scans the package used
before the one-pass kernel: each rescans every term of p for one jet
variable.  The reference jet variable compares and hashes by its sort key,
as jet variables did before they were interned, and the reference factor
sorting and merging are the general paths used before the identity checks
and the parity flag.  The reference coefficient is OracleScalar, the
polynomial in the base coordinates that every coefficient was before
coordinates became factors of the monomial: the oracles regroup each
polynomial's coordinate factors into one, and expand their results back.
The reference total derivative is the one used before factors were raised
in place: it rebuilds every raised term and re-sorts it from scratch.
The per-call merge and raise loop below are the product and total-derivative
kernels used before monomials were interned and their products and images
memoized: they merge and raise every term of every call afresh.
The reference evaluator is the theory-file expression evaluator the package
used before evaluation was memoized and analysed: it evaluates every node
afresh for every index binding, and OracleStatement puts it in the place of
the analysed statement.  All stay here as the oracles the fast kernels must
match exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkt import config, graded_poly, theory_dsl
from nkt.derivations import GeneralizedVectorField, prolong_apply
from nkt.errors import JetOrderError, NktError, SemanticError
from nkt.graded_poly import (
    Coordinate,
    GradedPolynomial,
    JetVariable,
    Kind,
    Monomial,
    Parity,
    VariableId,
    _kind_rank,
    antifield_of,
    clear_memos,
    gp_normalize,
    gp_sum,
    gp_sum_of_derivatives,
    gp_sum_of_products,
    jet,
    memo_sizes,
    render_polynomial,
)
from nkt.jet_calculus import (
    euler_lagrange,
    partial_left,
    partial_right,
    total_derivative,
)
from nkt.multiindex import EMPTY, MultiIndex, check_jet_order
from nkt.randgen import jet_pool, random_polynomial, random_scalar, random_theory
from nkt.theory_dsl import (
    _COORD_RE,
    _Binary,
    _coordinate_of,
    _D,
    _Env,
    _jet_of,
    _Num,
    _Pow,
    _Ref,
    _resolve_index,
    _Sum,
    _Unary,
    parse_expression,
    parse_theory,
    render_theory,
)

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"

KERNEL_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


# -- the reference oracle -------------------------------------------------------


def oracle_partial_left(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Left graded derivative: the sign counts odd factors left of the hit."""
    acc: dict = {}
    v = OracleJetVariable(v.var, v.mi)
    v_odd = v.parity is Parity.ODD
    for flat, s in oracle_regroup(p).items():
        odd_before = 0
        for i, jv in enumerate(flat):
            if jv == v:
                rest = flat[:i] + flat[i + 1 :]
                oracle_accumulate(acc, rest, s.neg() if (v_odd and odd_before & 1) else s)
            if jv.parity is Parity.ODD:
                odd_before += 1
    return GradedPolynomial(dict(oracle_expand(acc)))


def oracle_partial_right(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Right graded derivative: the sign counts odd factors right of the hit."""
    acc: dict = {}
    v = OracleJetVariable(v.var, v.mi)
    v_odd = v.parity is Parity.ODD
    for flat, s in oracle_regroup(p).items():
        odd_total = sum(1 for jv in flat if jv.parity is Parity.ODD)
        odd_before = 0
        for i, jv in enumerate(flat):
            here_odd = 1 if jv.parity is Parity.ODD else 0
            if jv == v:
                odd_after = odd_total - odd_before - here_odd
                rest = flat[:i] + flat[i + 1 :]
                oracle_accumulate(acc, rest, s.neg() if (v_odd and odd_after & 1) else s)
            odd_before += here_odd
    return GradedPolynomial(dict(oracle_expand(acc)))


class OracleJetVariable:
    """A variable differentiated along a multi-index, e.g. y_(0,1)."""

    __slots__ = ("var", "mi", "key", "_hash")

    def __init__(self, var: VariableId, mi: MultiIndex = EMPTY):
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
        self._hash = hash(self.key)

    @property
    def parity(self) -> Parity:
        return self.var.parity

    def raised(self, direction: int) -> "OracleJetVariable":
        return OracleJetVariable(self.var, self.mi + direction)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OracleJetVariable) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "OracleJetVariable") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"OracleJetVariable({self.var.render()}, {self.mi.entries})"


def oracle_sort_flat(factors):
    """Stable-sort factors into canonical order.

    Returns (sign, sorted factors); sign is -1 per odd-odd transposition and
    the factors are None when an odd variable repeats (the monomial is zero).
    """
    out = []
    sign = 1
    for f in factors:
        i = len(out)
        while i > 0 and out[i - 1].key > f.key:
            i -= 1
        if f.parity is Parity.ODD:
            crossings = sum(1 for g in out[i:] if g.parity is Parity.ODD)
            if crossings & 1:
                sign = -sign
        out.insert(i, f)
    for a, b in zip(out, out[1:]):
        if a.parity is Parity.ODD and a == b:
            return 0, None
    return sign, tuple(out)


def oracle_merge_flat(a, b):
    """Merge two canonical factor tuples, tracking the Koszul sign."""
    out = []
    sign = 1
    odd_left = sum(1 for f in a if f.parity is Parity.ODD)
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i].key <= b[j].key:
            if a[i].parity is Parity.ODD:
                odd_left -= 1
            out.append(a[i])
            i += 1
        else:
            if b[j].parity is Parity.ODD and (odd_left & 1):
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    for u, v in zip(out, out[1:]):
        if u.parity is Parity.ODD and u == v:
            return 0, None
    return sign, tuple(out)


def from_accumulator(acc: dict[tuple, int], den: int) -> GradedPolynomial:
    """The polynomial of a map of canonical factor tuples to int numerators.

    den must be a positive int; zero numerators are dropped and the gcd of
    den and the numerators is divided out.
    """
    return GradedPolynomial._from_terms({Monomial(flat): n for flat, n in acc.items()}, den)


def oracle_merge_interned(a, b):
    """Merge two canonical factor tuples of interned factors, per call."""
    out = []
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


def oracle_product(p: GradedPolynomial, q: GradedPolynomial) -> GradedPolynomial:
    acc: dict = {}
    for fa, na in p.numerators():
        for fb, nb in q.numerators():
            sign, merged = oracle_merge_interned(fa, fb)
            if merged is not None:
                acc[merged] = acc.get(merged, 0) + sign * na * nb
    return from_accumulator(acc, p.denominator() * q.denominator())


def oracle_raise_in_place(p: GradedPolynomial, direction: int) -> GradedPolynomial:
    """The total derivative, raising each factor of each term in place, per call."""
    terms = p.numerators()
    top = max(
        (
            len(f.mi.entries)
            for flat, _ in terms
            for f in flat
            if f.__class__ is JetVariable
        ),
        default=-1,
    )
    if top >= 0:
        check_jet_order(top + 1)
    acc: dict[tuple, int] = {}
    for flat, s in terms:
        n = len(flat)
        for i, f in enumerate(flat):
            if f.__class__ is not JetVariable:
                if f.k == direction:
                    dropped = flat[:i] + flat[i + 1 :]
                    cur = acc.get(dropped)
                    acc[dropped] = s if cur is None else cur + s
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
                negative = passed & 1
            else:
                negative = 0
            raised = flat[:i] + flat[i + 1 : j] + (up,) + flat[j:]
            cur = acc.get(raised)
            if negative:
                acc[raised] = -s if cur is None else cur - s
            else:
                acc[raised] = s if cur is None else cur + s
    return from_accumulator(acc, p.denominator())


_Exps = tuple[tuple[int, int], ...]  # ((coordinate, exponent), ...) sorted


class OracleScalar:
    """Polynomial in the base coordinates with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[_Exps, Fraction] | None = None):
        cleaned: dict[_Exps, Fraction] = {}
        if terms:
            for exps, q in terms.items():
                if q:
                    cleaned[exps] = q
        self.terms = tuple(sorted(cleaned.items()))

    def add(self, other: "OracleScalar") -> "OracleScalar":
        acc = dict(self.terms)
        for exps, q in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) + q
        return OracleScalar(acc)

    def neg(self) -> "OracleScalar":
        return OracleScalar({exps: -q for exps, q in self.terms})

    def mul(self, other: "OracleScalar") -> "OracleScalar":
        acc = {}
        for e1, q1 in self.terms:
            for e2, q2 in other.terms:
                merged = dict(e1)
                for coord, exp in e2:
                    merged[coord] = merged.get(coord, 0) + exp
                key = tuple(sorted(merged.items()))
                acc[key] = acc.get(key, Fraction(0)) + q1 * q2
        return OracleScalar(acc)

    def diff(self, direction: int) -> "OracleScalar":
        """Partial derivative along one base coordinate."""
        acc: dict[_Exps, Fraction] = {}
        for exps, q in self.terms:
            for i, (coord, exp) in enumerate(exps):
                if coord != direction:
                    continue
                rest = exps[:i] + ((coord, exp - 1),) + exps[i + 1 :]
                rest = tuple(p for p in rest if p[1] != 0)
                acc[rest] = acc.get(rest, Fraction(0)) + q * exp
        return OracleScalar(acc)

    def __repr__(self) -> str:
        return f"OracleScalar({dict(self.terms)!r})"


def oracle_exponents(coords) -> _Exps:
    """The ((coordinate, exponent), ...) of a product of coordinate factors."""
    exps: dict[int, int] = {}
    for c in coords:
        exps[c.k] = exps.get(c.k, 0) + 1
    return tuple(sorted(exps.items()))


def oracle_coordinates(exps: _Exps) -> tuple[Coordinate, ...]:
    return tuple(Coordinate(k) for k, e in exps for _ in range(e))


def oracle_jets(flat) -> tuple[OracleJetVariable, ...]:
    return tuple(OracleJetVariable(jv.var, jv.mi) for jv in flat)


def oracle_regroup(p: GradedPolynomial) -> dict:
    """p as {oracle jets: OracleScalar}: each term's coordinates form its coefficient."""
    acc: dict = {}
    for flat, q in p.raw_terms():
        coords = [f for f in flat if isinstance(f, Coordinate)]
        jets = oracle_jets(f for f in flat if isinstance(f, JetVariable))
        oracle_accumulate(acc, jets, OracleScalar({oracle_exponents(coords): q}))
    return acc


def oracle_expand(acc: dict) -> tuple:
    """The canonical term tuple of {oracle jets: OracleScalar}, in interned factors.

    Terms order by their jets and then by their coordinate exponents.
    """
    terms = []
    for flat, s in sorted(acc.items(), key=lambda kv: [f.key for f in kv[0]]):
        jets = tuple(JetVariable(f.var, f.mi) for f in flat)
        for exps, q in s.terms:
            terms.append((oracle_coordinates(exps) + jets, q))
    return tuple(terms)


def oracle_accumulate(acc: dict, flat, s: OracleScalar) -> None:
    cur = acc.get(flat)
    acc[flat] = s if cur is None else cur.add(s)


def oracle_mul(p: GradedPolynomial, q: GradedPolynomial) -> tuple:
    acc: dict = {}
    for fa, sa in oracle_regroup(p).items():
        for fb, sb in oracle_regroup(q).items():
            sign, merged = oracle_merge_flat(fa, fb)
            if merged is None:
                continue
            s = sa.mul(sb)
            oracle_accumulate(acc, merged, s.neg() if sign < 0 else s)
    return oracle_expand(acc)


def oracle_sum(ps) -> tuple:
    acc: dict = {}
    for p in ps:
        for flat, s in oracle_regroup(p).items():
            oracle_accumulate(acc, flat, s)
    return oracle_expand(acc)


def oracle_normalize(raw) -> tuple:
    acc: dict = {}
    for coeff, factors in raw:
        # coordinates are even: collecting them into the coefficient costs no sign
        coords = [f for f in factors if isinstance(f, Coordinate)]
        coeff = OracleScalar({oracle_exponents(coords): Fraction(coeff)})
        jets = oracle_jets(f for f in factors if isinstance(f, JetVariable))
        sign, flat = oracle_sort_flat(jets)
        if flat is None:
            continue
        oracle_accumulate(acc, flat, coeff.neg() if sign < 0 else coeff)
    return oracle_expand(acc)


def oracle_total_derivative(p: GradedPolynomial, direction: int) -> tuple:
    raw = []
    for jets, s in oracle_regroup(p).items():
        raw.append((s.diff(direction), jets))
        for i, jv in enumerate(jets):
            raw.append((s, jets[:i] + (jv.raised(direction),) + jets[i + 1 :]))
    acc: dict = {}
    for coeff, factors in raw:
        sign, flat = oracle_sort_flat(factors)
        if flat is None:
            continue
        oracle_accumulate(acc, flat, coeff.neg() if sign < 0 else coeff)
    return oracle_expand(acc)


def oracle_total_derivative_multi(p: GradedPolynomial, mi: MultiIndex) -> GradedPolynomial:
    for direction in mi.entries:
        p = GradedPolynomial(dict(oracle_total_derivative(p, direction)))
    return p


def oracle_eval(env: _Env, node: object) -> GradedPolynomial:
    if isinstance(node, _Num):
        return GradedPolynomial.scalar(node.value)
    if isinstance(node, _Unary):
        return -oracle_eval(env, node.operand)
    if isinstance(node, _Binary):
        left = oracle_eval(env, node.left)
        right = oracle_eval(env, node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    if isinstance(node, _Pow):
        base = oracle_eval(env, node.base)
        out = GradedPolynomial.one()
        for _ in range(node.exponent):
            out = out * base
        return out
    if isinstance(node, _Sum):
        saved = env.bindings.get(node.index)
        if node.index in env.variables or node.index in env.constants:
            raise SemanticError(
                f"sum index {node.index!r} shadows a declaration", node.span
            )
        parts: list[GradedPolynomial] = []
        for value in range(node.lo, node.hi + 1):
            env.bindings[node.index] = value
            parts.append(oracle_eval(env, node.body))
        total = gp_sum(parts)
        if saved is None:
            env.bindings.pop(node.index, None)
        else:
            env.bindings[node.index] = saved
        return total
    if isinstance(node, _D):
        return GradedPolynomial.variable(_jet_of(env, node))
    if isinstance(node, _Ref):
        return oracle_eval_ref(env, node)
    raise SemanticError("malformed expression")


class OracleStatement:
    """Stands in for theory_dsl._Statement: no analysis, no memo."""

    def __init__(self, ast, dim, variables, constants, binders=()) -> None:
        self.ast = ast
        self.declarations = (dim, variables, constants)

    def __call__(self, bindings: dict) -> GradedPolynomial:
        return oracle_eval(_Env(*self.declarations, dict(bindings)), self.ast)


def oracle_eval_ref(env: _Env, node: _Ref) -> GradedPolynomial:
    if not node.anti and not node.explicit_args:
        if node.name in env.bindings:
            return GradedPolynomial.scalar(Fraction(env.bindings[node.name]))
        if _COORD_RE.match(node.name):
            return GradedPolynomial.coordinate(
                _coordinate_of(env, node.name, node.span)
            )
    if not node.anti and node.name in env.constants:
        const = env.constants[node.name]
        idx = tuple(_resolve_index(env, a, node.span) for a in node.args)
        try:
            return GradedPolynomial.scalar(const.entry(idx))
        except SemanticError as exc:
            raise SemanticError(str(exc), node.span) from None
    if node.name in env.variables:
        return GradedPolynomial.variable(_jet_of(env, node))
    raise SemanticError(f"unknown name {node.name!r}", node.span)


# -- random graded polynomials --------------------------------------------------


def _variables(n_even: int, n_odd: int, ghosts: bool, antifields: bool) -> list[VariableId]:
    out = [VariableId(Kind.FIELD, "y", (i,), Parity.EVEN) for i in range(n_even)]
    out += [VariableId(Kind.FIELD, "psi", (i,), Parity.ODD) for i in range(n_odd)]
    if ghosts:
        out.append(VariableId(Kind.GHOST, "C", (), Parity.ODD))
    if antifields:
        out += [antifield_of(var) for var in out[:2]]
    return out


_TOWER_INDICES = [
    MultiIndex(entries) for entries in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]
]

# term multipliers with mixed denominators: the lcm of 2/3 and 7/4 exceeds
# both denominators, and sums such as 5/6 + 7/6 leave a gcd to divide out
RATIONALS = [
    Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 4), Fraction(-7, 6), 1
]


@st.composite
def graded_polynomials(draw) -> GradedPolynomial:
    """Odd and even fields, ghosts, antifields, jet order <= 2, dim 1-3."""
    variables = _variables(
        draw(st.integers(0, 2)),
        draw(st.integers(0, 2)),
        draw(st.booleans()),
        draw(st.booleans()),
    )
    if not variables:
        variables = _variables(1, 0, False, False)
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(1, 3))
    p = random_polynomial(
        rng,
        variables,
        dim,
        max_order=draw(st.integers(0, 2)),
        max_terms=draw(st.integers(1, 6)),
        max_factors=draw(st.integers(1, 5)),
        scalar_coeffs=draw(st.booleans()),
    )
    evens = [var for var in variables if var.parity is Parity.EVEN]
    if evens and draw(st.booleans()):
        # a squared even factor in every term: d/dv must count it twice
        square = GradedPolynomial.variable(JetVariable(draw(st.sampled_from(evens))))
        p = p * square * square
    odds = [var for var in variables if var.parity is Parity.ODD]
    if odds and draw(st.booleans()):
        # one odd variable at several jet orders in a term with an
        # x-dependent coefficient: a raised factor moves past its lower
        # jets, and may land on an equal one
        var = draw(st.sampled_from(odds))
        tower = random_scalar(rng, dim)
        for mi in draw(st.lists(st.sampled_from(_TOWER_INDICES), min_size=2, max_size=4)):
            tower = tower * GradedPolynomial.variable(JetVariable(var, mi))
        p = p + tower
    if draw(st.booleans()):
        p = GradedPolynomial({flat: q * rng.choice(RATIONALS) for flat, q in p.items()})
    return p


ABSENT = [
    JetVariable(VariableId(Kind.FIELD, "absent", (), Parity.EVEN), EMPTY),
    JetVariable(VariableId(Kind.GHOST, "absent", (), Parity.ODD), EMPTY),
]


# -- the kernels against the oracle ----------------------------------------------


@KERNEL_SETTINGS
@given(graded_polynomials(), st.sampled_from(ABSENT))
def test_partials_match_the_per_variable_scan(p, absent) -> None:
    for jv in sorted(p.variables()) + [absent]:
        assert partial_left(p, jv) == oracle_partial_left(p, jv)
        assert partial_right(p, jv) == oracle_partial_right(p, jv)
    assert partial_left(p, absent).is_zero()
    assert partial_right(p, absent).is_zero()


@KERNEL_SETTINGS
@given(graded_polynomials())
def test_memo_leaves_the_polynomial_unchanged(p) -> None:
    terms, digest = p.raw_terms(), hash(p)
    twin = GradedPolynomial(dict(terms))
    for jv in p.variables():
        first_left, first_right = partial_left(p, jv), partial_right(p, jv)
        assert partial_left(p, jv) == first_left
        assert partial_right(p, jv) == first_right
    assert p.raw_terms() == terms
    assert hash(p) == digest == hash(twin)
    assert p == twin and twin == p


@KERNEL_SETTINGS
@given(graded_polynomials(), st.randoms(use_true_random=False), st.integers(1, 12))
def test_term_order_is_independent_of_insertion_order(p, rnd, k) -> None:
    items = list(p.items())
    rnd.shuffle(items)
    numerators = list(p.numerators())
    rnd.shuffle(numerators)
    # the accumulator also takes a common factor k on every numerator and
    # the denominator, and zero numerators, and must divide out and drop both
    acc = {flat: k * n for flat, n in reversed(numerators)}
    acc[(ABSENT[0],)] = 0
    shuffled = [
        GradedPolynomial(dict(items)),
        from_accumulator(acc, k * p.denominator()),
    ]
    # hash before any raw_terms() call, which stores the canonical order
    assert [hash(q) for q in shuffled] == [hash(p)] * 2
    for q in shuffled:
        assert q == p and p == q
        assert q.raw_terms() == p.raw_terms() == oracle_sum([p])
        assert render_polynomial(q, 3) == render_polynomial(p, 3)
        assert hash(q) == hash(p)


@KERNEL_SETTINGS
@given(st.lists(graded_polynomials(), max_size=6))
def test_gp_sum_is_the_left_fold_of_add(ps) -> None:
    total = gp_sum(ps)
    assert total == reduce(add, ps, GradedPolynomial.zero())
    assert total == gp_normalize((s, flat) for p in ps for flat, s in p.raw_terms())
    assert gp_sum(reversed(ps)) == total


def assert_canonical(p: GradedPolynomial) -> None:
    """The invariant of the numerator/denominator form, and its Fraction view."""
    den, numerators = p.denominator(), dict(p.numerators())
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n != 0 for n in numerators.values())
    assert gcd(den, *numerators.values()) == 1
    assert numerators or den == 1
    assert dict(p.items()) == {flat: Fraction(n, den) for flat, n in numerators.items()}
    assert p == GradedPolynomial(dict(p.items()))


@KERNEL_SETTINGS
@given(
    graded_polynomials(),
    graded_polynomials(),
    st.sampled_from(RATIONALS + [0, -3, Fraction(3, 7)]),
    st.integers(0, 2),
)
def test_every_kernel_returns_the_canonical_form(p, q, c, direction) -> None:
    results = [p * q, q * p, p * p, p + q, p - q, q - p, p - p, -p, p.scaled(c)]
    results += [total_derivative(p, direction), gp_sum([p, q, -p, q.scaled(c)])]
    results += [*p.left_partials().values(), *p.right_partials().values()]
    results.append(
        gp_normalize((c * s, flat) for x in (p, q) for flat, s in x.raw_terms())
    )
    for r in [p, q, *results]:
        assert_canonical(r)


def test_denominators_follow_the_lcm_and_lose_common_factors() -> None:
    x, y = (JetVariable(VariableId(Kind.FIELD, n, (), Parity.EVEN)) for n in "uv")
    a = GradedPolynomial({(x,): Fraction(2, 3), (y,): Fraction(7, 4)})
    assert (a.denominator(), dict(a.numerators())) == (12, {(x,): 8, (y,): 21})
    b = GradedPolynomial({(x,): Fraction(1, 3), (y,): Fraction(1, 4)})
    assert (a + b).denominator() == 1
    assert dict((a + b).numerators()) == {(x,): 1, (y,): 2}
    assert (a - a).denominator() == 1 and (a - a).is_zero()
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    product = GradedPolynomial({(x,): half}) * GradedPolynomial({(y,): two_thirds})
    assert (product.denominator(), dict(product.numerators())) == (3, {(x, y): 1})
    # numerators 8*4, 8*3 + 21*4 and 21*3 share no factor with 12 * 12
    assert (a * b).denominator() == 144
    half_square = GradedPolynomial({(x, x): half, (Coordinate(0),) * 2: half})
    assert half_square.left_partials()[x] == GradedPolynomial.variable(x)
    assert total_derivative(half_square, 0).raw_terms() == (
        ((Coordinate(0),), 1),
        ((x, JetVariable(x.var, MultiIndex((0,)))), 1),
    )
    assert a.scaled(Fraction(3, 7)).denominator() == 28


def test_polynomials_that_differ_only_in_their_denominator_differ() -> None:
    x = JetVariable(VariableId(Kind.FIELD, "u", (), Parity.EVEN))
    ladder = [GradedPolynomial({(x,): Fraction(1, d)}) for d in range(1, 9)]
    assert [p == ladder[0] for p in ladder] == [True] + [False] * 7
    assert len(set(ladder)) == len({hash(p) for p in ladder}) == 8


# -- the callers against the oracle -----------------------------------------------


@KERNEL_SETTINGS
@given(graded_polynomials())
def test_euler_lagrange_matches_the_oracle(p) -> None:
    expected: dict[VariableId, GradedPolynomial] = {}
    for jv in p.variables():
        term = oracle_total_derivative_multi(oracle_partial_left(p, jv), jv.mi)
        if jv.mi.order & 1:
            term = -term
        expected[jv.var] = expected.get(jv.var, GradedPolynomial.zero()) + term
    assert euler_lagrange(p).components == expected


@KERNEL_SETTINGS
@given(graded_polynomials(), graded_polynomials())
def test_prolongation_matches_the_oracle(p, component) -> None:
    targets = sorted({jv.var for jv in p.variables()}, key=lambda var: var.rank)
    vf = GeneralizedVectorField({var: component for var in targets[:2]})
    expected = GradedPolynomial.zero()
    for jv in p.variables():
        if jv.var in vf.components:
            inner = oracle_partial_left(p, jv)
            expected = expected + oracle_total_derivative_multi(component, jv.mi) * inner
    assert prolong_apply(vf, p) == expected


# -- interned variables and scalar shortcuts against the general kernels ------------


@st.composite
def scalars(draw) -> GradedPolynomial:
    """Zero, constant and one- or many-term polynomials in x0 and x1 alone."""
    exps = st.sampled_from([(), (), ((0, 1),), ((1, 2),), ((0, 1), (1, 1))])
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    terms = draw(st.dictionaries(exps, coeff, max_size=3))
    return GradedPolynomial({oracle_coordinates(e): q for e, q in terms.items()})


@st.composite
def raw_term_lists(draw) -> list:
    """Raw terms: factors in any order, odd repeats, exactly cancelling pairs.

    Coordinate factors stand anywhere among the jet variables.
    """
    variables = _variables(
        draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.booleans()), False
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(1, 2))
    pool = jet_pool(variables, dim, draw(st.integers(0, 1)))
    raw: list = []
    for _ in range(draw(st.integers(0, 6))):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            terms = [(q, list(coords)) for coords, q in random_scalar(rng, dim).items()]
        else:
            terms = [(rng.choice([-1, 2]), [])]
        for coeff, coords in terms:
            mixed = factors + coords
            rng.shuffle(mixed)
            raw.append((coeff, mixed))
            if rng.random() < 0.4:
                again = mixed if rng.random() < 0.5 else rng.sample(mixed, len(mixed))
                raw.append((-coeff, again))
    return raw


@KERNEL_SETTINGS
@given(scalars(), scalars(), st.integers(0, 1))
def test_coordinate_arithmetic_matches_the_scalar_oracle(a, b, direction) -> None:
    def oracle(p: GradedPolynomial) -> OracleScalar:
        return oracle_regroup(p).get((), OracleScalar())

    def expand(s: OracleScalar) -> tuple:
        return oracle_expand({(): s})

    for x, y in ((a, b), (b, a), (a, -b), (a, -a), (a, a)):
        assert (x + y).raw_terms() == expand(oracle(x).add(oracle(y)))
        assert (x * y).raw_terms() == expand(oracle(x).mul(oracle(y)))
        assert (x - y).raw_terms() == expand(oracle(x).add(oracle(y).neg()))
    assert (-a).raw_terms() == expand(oracle(a).neg())
    assert (a + -a).raw_terms() == ()
    assert total_derivative(a, direction).raw_terms() == expand(oracle(a).diff(direction))


@KERNEL_SETTINGS
@given(graded_polynomials(), graded_polynomials())
def test_products_match_the_key_comparing_kernels(p, q) -> None:
    for x, y in ((p, q), (q, p), (p, p), (p, -p)):
        assert (x * y).raw_terms() == oracle_mul(x, y)


@KERNEL_SETTINGS
@given(st.lists(graded_polynomials(), min_size=1, max_size=4), st.integers(0, 4))
def test_sums_match_the_key_comparing_kernels(ps, cancelled) -> None:
    summands = ps + [-p for p in ps[:cancelled]]
    assert gp_sum(summands).raw_terms() == oracle_sum(summands)
    assert (ps[0] + ps[-1]).raw_terms() == oracle_sum([ps[0], ps[-1]])
    assert (ps[0] - ps[-1]).raw_terms() == oracle_sum([ps[0], -ps[-1]])
    assert (ps[0] - ps[0]).raw_terms() == ()


@KERNEL_SETTINGS
@given(graded_polynomials(), st.integers(0, 2))
def test_total_derivative_matches_the_key_comparing_kernels(p, direction) -> None:
    got = total_derivative(p, direction)
    assert got.raw_terms() == oracle_total_derivative(p, direction)
    # a second pass takes every raise from the per-variable cache
    assert total_derivative(p, direction).raw_terms() == got.raw_terms()


@KERNEL_SETTINGS
@given(raw_term_lists())
def test_gp_normalize_matches_the_key_comparing_kernels(raw) -> None:
    assert gp_normalize(raw).raw_terms() == oracle_normalize(raw)


def single_factor(f: Coordinate | JetVariable) -> GradedPolynomial:
    if isinstance(f, Coordinate):
        return GradedPolynomial.coordinate(f.k)
    return GradedPolynomial.variable(f)


@KERNEL_SETTINGS
@given(raw_term_lists(), st.integers(0, 2**32))
def test_the_constructor_canonicalizes_as_the_product_does(raw, seed) -> None:
    # one rational weight per factor multiset, so cancelling pairs still cancel
    rng = random.Random(seed)
    weights: dict = {}
    raw = [
        (q * weights.setdefault(tuple(sorted(map(id, f))), rng.choice(RATIONALS)), f)
        for q, f in raw
    ]
    for q, f in raw:
        p = GradedPolynomial({tuple(f): q})
        assert_canonical(p)
        assert p == gp_normalize([(q, f)])
        assert p == reduce(mul, map(single_factor, f), GradedPolynomial.scalar(q))
    terms: dict = {}
    for q, f in raw:
        terms[tuple(f)] = terms.get(tuple(f), 0) + q
    p = GradedPolynomial(terms)
    assert p == gp_normalize(raw)
    assert p.raw_terms() == oracle_normalize(raw)


def test_the_single_term_constructors_match_the_general_one() -> None:
    y = jet(VariableId(Kind.FIELD, "y", (), Parity.ODD))
    assert GradedPolynomial.zero() == GradedPolynomial() == GradedPolynomial({})
    assert GradedPolynomial.one() == GradedPolynomial({(): 1})
    assert GradedPolynomial.coordinate(1) == GradedPolynomial({(Coordinate(1),): 1})
    assert GradedPolynomial.variable(y) == GradedPolynomial({(y,): 1})
    assert GradedPolynomial.variable(y.var) == GradedPolynomial.variable(y)
    for q in (0, 1, -3, Fraction(0), Fraction(-7, 6), Fraction(4, 2)):
        assert GradedPolynomial.scalar(q) == GradedPolynomial({(): q})
    for p in (
        GradedPolynomial.zero(),
        GradedPolynomial.one(),
        GradedPolynomial.scalar(Fraction(-7, 6)),
        GradedPolynomial.coordinate(1),
        GradedPolynomial.variable(y),
    ):
        assert_canonical(p)


# -- fused sums of products and of total derivatives against their definitions ------

WEIGHTS = RATIONALS + [-1, 3, Fraction(-3, 7)]


def summed_products(pairs: list) -> GradedPolynomial:
    """Each product built alone by *, then summed."""
    return gp_sum([a * b for a, b in pairs])


def summed_derivatives(items: list) -> GradedPolynomial:
    """Each derivative built by repeated total_derivative and scaled, then summed."""
    return gp_sum([reduce(total_derivative, lam, p).scaled(w) for p, lam, w in items])


@st.composite
def fused_inputs(draw) -> tuple[list, list]:
    """Product pairs and derivative items over drawn polynomials.

    The pairs reuse their few polynomials, so odd factors meet their equals;
    some pairs have one operand negated, and copies of some pairs and items
    with the other sign cancel part of each sum; either list may be empty.
    """
    ps = draw(st.lists(graded_polynomials(), min_size=1, max_size=3))
    pick = st.sampled_from(ps)
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=4))
    pairs += [(-a, b) for a, b in draw(st.lists(st.tuples(pick, pick), max_size=2))]
    pairs += [(a, -b) for a, b in pairs[: draw(st.integers(0, len(pairs)))]]
    lams = st.lists(st.integers(0, 2), max_size=3).map(lambda e: tuple(sorted(e)))
    items = draw(st.lists(st.tuples(pick, lams, st.sampled_from(WEIGHTS)), max_size=4))
    items += [(p, lam, -w) for p, lam, w in items[: draw(st.integers(0, len(items)))]]
    return pairs, items


@KERNEL_SETTINGS
@given(fused_inputs())
def test_fused_sums_match_their_definitions(inputs) -> None:
    pairs, items = inputs
    want = [summed_products(pairs), summed_derivatives(items)]

    def fused() -> list:
        got = [gp_sum_of_products(iter(pairs)), gp_sum_of_derivatives(iter(items))]
        for r in got:
            assert_canonical(r)
        return [(r, r.raw_terms()) for r in got]

    expected = [(r, r.raw_terms()) for r in want]
    clear_memos()
    assert fused() == expected
    assert fused() == expected
    with pytest.MonkeyPatch.context() as mp:
        # a cap this small clears every memo many times within one kernel call
        mp.setattr(graded_poly, "MEMO_CAP", 5)
        assert fused() == expected
    assert gp_sum_of_products([]).is_zero() and gp_sum_of_derivatives([]).is_zero()


def derivative_outcome(kernel, items: list) -> tuple | str:
    try:
        return kernel(items).raw_terms()
    except JetOrderError as err:
        return str(err)


@KERNEL_SETTINGS
@given(fused_inputs(), st.integers(1, 3))
def test_fused_derivatives_name_the_jet_order_of_the_stepwise_path(inputs, bound) -> None:
    # drawn polynomials reach order 2, so a bound of 1 is already passed
    # before the first step of some items
    items = inputs[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NKT_MAX_JET_ORDER", str(bound))
        config.reload()
        fused = derivative_outcome(gp_sum_of_derivatives, items)
        assert fused == derivative_outcome(summed_derivatives, items)
    config.reload()


def test_fused_derivatives_check_the_bound_before_every_step(monkeypatch) -> None:
    y = VariableId(Kind.FIELD, "y", (), Parity.EVEN)
    x, y0 = GradedPolynomial.coordinate(0), GradedPolynomial.variable(JetVariable(y))
    y1 = GradedPolynomial.variable(jet(y, 0))
    # d_x(x*y_x - y) = x*y_xx: the first step's terms in y_x cancel
    p = x * y1 - y0
    # the two items cancel at every step: their sum is zero within the bound
    pair = [(p, (0, 0), 1), (p, (0, 0), -1)]
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "3")
    config.reload()
    too_high = "jet order 4 exceeds the bound 3 (raise NKT_MAX_JET_ORDER to override)"
    for items, want in [
        ([(p, (0, 0), 1)], (((jet(y, 0, 0),), 1), ((Coordinate(0), jet(y, 0, 0, 0)), 1))),
        (pair, ()),
        # the third step would reach order 4; one check of the final order
        # would name 1 + 4 = 5
        ([(p, (0, 0, 0, 0), 1)], too_high),
        (pair + [(p, (0, 0, 0, 0), 1)], too_high),
        ([(x * x, (0, 0, 0, 0, 0), Fraction(1, 2))], ()),
    ]:
        assert derivative_outcome(summed_derivatives, items) == want
        assert derivative_outcome(gp_sum_of_derivatives, items) == want


# -- memoized monomial kernels against the per-call ones -----------------------------


@KERNEL_SETTINGS
@given(graded_polynomials(), graded_polynomials(), st.integers(0, 2))
def test_memoized_kernels_match_the_per_call_ones(p, q, direction) -> None:
    for x, y in ((p, q), (q, p), (p, p)):
        assert (x * y).raw_terms() == oracle_product(x, y).raw_terms()
        for fa in x.monomials():
            for fb in y.monomials():
                sign, product = Monomial(fa).times(Monomial(fb))
                want_sign, want = oracle_merge_interned(fa, fb)
                assert sign == want_sign
                assert (None if product is None else product.factors) == want
    for x in (p, q, p * q):
        got = total_derivative(x, direction)
        assert got.raw_terms() == oracle_raise_in_place(x, direction).raw_terms()


def kernel_outcomes(ps: list, raw: list, direction: int) -> list:
    """Products, sums, derivatives, partials, EL and normal forms of fresh copies.

    The copies are rebuilt from factor tuples, so they share the interned
    monomials of ps but none of the per-polynomial caches.
    """
    ps = [GradedPolynomial(dict(p.items())) for p in ps]
    results = [x * y for x in ps for y in ps]
    results += [gp_sum(ps), ps[0] - ps[-1], gp_normalize(raw)]
    for p in ps:
        results += [total_derivative(p, d) for d in range(3)]
        results.append(total_derivative(total_derivative(p, direction), direction))
        for partials in (p.left_partials(), p.right_partials()):
            results += [partials[jv] for jv in sorted(partials)]
        el = euler_lagrange(p).components
        results += [el[var] for var in sorted(el, key=lambda var: var.rank)]
    return [(r.raw_terms(), render_polynomial(r, 3), hash(r), r.parity()) for r in results]


@KERNEL_SETTINGS
@given(
    st.lists(graded_polynomials(), min_size=1, max_size=3),
    raw_term_lists(),
    st.integers(0, 2),
)
def test_results_do_not_depend_on_the_memos(ps, raw, direction) -> None:
    clear_memos()
    cold = kernel_outcomes(ps, raw, direction)
    assert kernel_outcomes(ps, raw, direction) == cold
    with pytest.MonkeyPatch.context() as mp:
        # a cap this small clears every memo many times within one kernel call
        mp.setattr(graded_poly, "MEMO_CAP", 5)
        assert kernel_outcomes(ps, raw, direction) == cold
    clear_memos()
    assert kernel_outcomes(ps, raw, direction) == cold


def memo_entries() -> int:
    sizes = memo_sizes()
    return sizes["products"] + sizes["images"] + sizes["partials"]


def test_memos_stay_within_their_cap(monkeypatch) -> None:
    cap = 40
    monkeypatch.setattr(graded_poly, "MEMO_CAP", cap)
    clear_memos()
    flushes = []
    monkeypatch.setattr(graded_poly, "clear_memos", lambda: flushes.append(1) or clear_memos())
    rng = random.Random(7)
    variables = _variables(2, 2, True, True)
    pool = jet_pool(variables, 2, 2)
    before = [random_polynomial(rng, variables, 2, max_order=2, max_terms=4) for _ in range(6)]
    built = [x * y for x in before for y in before] + [total_derivative(x, 1) for x in before]
    digests = [(hash(x), x.raw_terms()) for x in built]
    for i in range(300):
        # fresh products and derivatives: factors drawn from 42 jets
        x = gp_normalize([(1, rng.sample(pool, 3)), (Fraction(1, 2), rng.sample(pool, 2))])
        y = gp_normalize([(2, rng.sample(pool, 3))])
        for _ in (x * y, total_derivative(x, rng.randint(0, 1)), *x.left_partials().values()):
            assert len(graded_poly._MEMOIZED) <= cap
        if i % 30 == 0:
            assert memo_entries() == len(graded_poly._MEMOIZED)
    assert len(flushes) > 50
    # built before all those flushes, the same polynomials rebuilt after them
    # are equal, hash the same and list the same terms
    again = [x * y for x in before for y in before] + [total_derivative(x, 1) for x in before]
    assert again == built
    assert [(hash(x), x.raw_terms()) for x in again] == digests


def test_clear_memos_keeps_the_monomials() -> None:
    y = JetVariable(VariableId(Kind.FIELD, "y", (), Parity.EVEN))
    p = GradedPolynomial({(y,): 1})
    square = p * p
    m = Monomial((y, y))
    clear_memos()
    assert memo_entries() == 0
    assert Monomial((y, y)) is m
    assert p * p == square and hash(p * p) == hash(square)


# -- expression evaluation against the oracle ---------------------------------------

MEMO_THEORY_TEXT = """\
theory memo
dim 2
field a[mu=0..1,r=1..2] parity even
field y parity even
ghost C[r=1..2] parity odd
constant e = levi_civita(2)
constant k[0..1,1..2] = {
  (0,1): 1
  (1,2): -2/3
}
constant kd = kronecker(2)
constant z[1..2,0..1] = {
  (1,0): 0
  (1,1): 1/2
  (2,0): -1
}
"""
MEMO_THEORY = parse_theory(MEMO_THEORY_TEXT)

# Sums reuse these names, nested and side by side; r also shadows the binder
# of the derivation entry below.  The 0..2 range runs past a's first axis and
# past the base dimension, so some draws fail part way through a sum, and
# fail the range proof that lets a sum skip the zeros of its constant factors.
SUM_NAMES = ("i", "j", "r")
SUM_RANGES = ("0..1", "1..2", "1..1", "0..2")
CONSTANT_AXES = {
    "e": ("1..2", "1..2"), "k": ("0..1", "1..2"), "kd": ("1..2", "1..2"), "z": ("1..2", "0..1")
}


@st.composite
def expressions(draw, scope: tuple[str, ...] = (), depth: int = 0) -> str:
    """Expression text over MEMO_THEORY whose free index names lie in scope."""

    def index(*values: int) -> str:
        return draw(st.sampled_from([*map(str, values), *scope]))

    def direction() -> str:
        return draw(st.sampled_from(["0", "1", "x0", "x1", *scope]))

    if depth >= 4 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.sampled_from(
            ["num", "num", "coord", "y", "dy", "a", "da", "ajet", "C", *CONSTANT_AXES]
            + ["index"] * bool(scope)
        ))
        if leaf == "num":
            return draw(st.sampled_from(["0", "1", "2", "3/4"]))
        if leaf == "index":
            return draw(st.sampled_from(scope))
        if leaf == "coord":
            return draw(st.sampled_from(["x0", "x1"]))
        if leaf == "y":
            return "y"
        if leaf == "dy":
            return f"d(y;{direction()})"
        if leaf == "a":
            return f"a[{index(0, 1)},{index(1, 2)}]"
        if leaf == "da":
            return f"d(a[{index(0, 1)},{index(1, 2)}];{direction()})"
        if leaf == "ajet":
            return f"a[{index(0, 1)},{index(1, 2)};{direction()},{direction()}]"
        if leaf == "C":
            return f"C[{index(1, 2)}]"
        if leaf in ("e", "kd"):
            return f"{leaf}[{index(1, 2)},{index(1, 2)}]"
        if leaf == "z":
            return f"z[{index(1, 2)},{index(0, 1)}]"
        return f"k[{index(0, 1)},{index(1, 2)}]"
    kind = draw(st.sampled_from(
        ["+", "-", "*", "*", "neg", "pow", "sum", "sum", "contract"]
    ))
    if kind == "sum":
        name = draw(st.sampled_from(SUM_NAMES))
        body = draw(expressions(tuple(sorted({*scope, name})), depth + 1))
        return f"sum({name},{draw(st.sampled_from(SUM_RANGES))}, {body})"
    if kind == "contract":
        # a factor, then a constant reading the indices of two nested sums,
        # which mostly run over the constant's own axes
        const = draw(st.sampled_from(sorted(CONSTANT_AXES)))
        outer = draw(st.sampled_from(SUM_NAMES))
        inner = draw(st.sampled_from(SUM_NAMES))
        factor = draw(expressions(tuple(sorted({*scope, outer, inner})), depth + 1))
        args = draw(st.permutations([outer, inner]))
        axes = dict(zip(args, CONSTANT_AXES[const]))
        ranges = [draw(st.sampled_from([axes[n]] * 4 + [*SUM_RANGES])) for n in (outer, inner)]
        return (
            f"sum({outer},{ranges[0]}, sum({inner},{ranges[1]},"
            f" ({factor}) * {const}[{args[0]},{args[1]}]))"
        )
    operand = draw(expressions(scope, depth + 1))
    if kind == "neg":
        return f"-({operand})"
    if kind == "pow":
        return f"({operand})^{draw(st.integers(0, 3))}"
    return f"({operand}) {kind} ({draw(expressions(scope, depth + 1))})"


def outcome(parse, *args) -> tuple:
    """A parse's value, or its error with message and span."""
    try:
        return ("value", parse(*args))
    except NktError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "span", None))


def oracle_outcome(parse, *args) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory_dsl, "_Statement", OracleStatement)
        return outcome(parse, *args)


@KERNEL_SETTINGS
@given(expressions())
def test_expressions_match_the_fresh_evaluator(text) -> None:
    assert outcome(parse_expression, text, MEMO_THEORY) == oracle_outcome(
        parse_expression, text, MEMO_THEORY
    )


@KERNEL_SETTINGS
@given(expressions(("mu", "r")))
def test_binder_entries_match_the_fresh_evaluator(text) -> None:
    theory = MEMO_THEORY_TEXT + f"derivation t {{\n  a[mu=0..1,r=1..2] : {text}\n}}\n"
    got, want = outcome(parse_theory, theory), oracle_outcome(parse_theory, theory)
    assert got == want
    if got[0] == "value":
        assert render_theory(got[1]) == render_theory(want[1])


@pytest.mark.parametrize("path", sorted(THEORY_DIR.glob("*.nkt")), ids=lambda p: p.stem)
def test_bundled_theories_match_the_fresh_evaluator(path, monkeypatch) -> None:
    text = path.read_text()
    theory = parse_theory(text)
    monkeypatch.setattr(theory_dsl, "_Statement", OracleStatement)
    reference = parse_theory(text)
    assert theory == reference
    assert render_theory(theory) == render_theory(reference)


@pytest.mark.parametrize("text, message, column", [
    # a zero factor does not hide a later error
    ("0 * C[9]", "index r=9 of C is outside 1..2", 5),
    # the constant factor reads no index of the sum; a[2,1] is out of range
    ("sum(i,0..2, e[1,1]*a[i,1])", "index mu=2 of a is outside 0..1", 20),
    # the constant's own index runs out of range
    ("sum(i,1..3, e[i,1]*y)", "index 3 of e is outside 1..2", 13),
    # the inner i shadows the outer one, and runs past k's first axis
    ("sum(i,1..2, sum(i,1..2, k[i,i]*y))", "index 2 of k is outside 0..1", 25),
    # e[i,i] is always zero, but the jet is past the order bound
    (
        "sum(i,1..2, e[i,i]*d(y;0,0,0,0,0,0,0,0,0))",
        "jet order 9 exceeds the bound 8 (raise NKT_MAX_JET_ORDER to override)",
        20,
    ),
])
def test_errors_keep_their_precedence(text, message, column) -> None:
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert got[:3] == ("error", SemanticError, f"{message} (line 1, column {column})")
    assert (got[3].line, got[3].column) == (1, column)


def test_a_constant_under_a_sum_zeroes_only_a_product() -> None:
    # e[1,1] = 0 leaves the i = 1 binding's y in the sum
    got = parse_expression("sum(i,1..2, e[1,i] + y)", MEMO_THEORY)
    assert got == parse_expression("1 + 2*y", MEMO_THEORY)


def products_evaluated(monkeypatch, parse, text: str, start: int, *args) -> int:
    """How often parse(text, *args) evaluates the product whose * is at start.

    Counts calls of the evaluator _compile builds for that node; the
    products counted below read every name their sums bind, so they are not
    memoized and each call evaluates them.
    """
    calls = []
    compile_node = theory_dsl._compile

    def counted(stmt, facts, *args):
        run = compile_node(stmt, facts, *args)
        node = facts.node
        if not (isinstance(node, _Binary) and node.span.start == start):
            return run

        def counting():
            calls.append(node)
            return run()

        return counting

    monkeypatch.setattr(theory_dsl, "_compile", counted)
    parse(text, *args)
    return len(calls)


def test_sums_visit_only_the_nonzero_entries_of_their_constants(monkeypatch) -> None:
    # minkowski(4) is diagonal: g[m,al]*g[n,be] is nonzero for 4*4 of the
    # 4^4 (m,n,al,be), times 3 values of r
    text = (THEORY_DIR / "ym_su2.nkt").read_text()
    start = text.index("* (d(a[be,r];al)")
    assert products_evaluated(monkeypatch, parse_theory, text, start) == 48
    # a stored zero is skipped like a missing entry: z[1,0] is stored as 0,
    # z[2,1] is not stored, so two of the four (i,j) remain
    text = "sum(i,1..2, sum(j,0..1, z[i,j]*y))"
    start = text.index("*")
    count = products_evaluated(monkeypatch, parse_expression, text, start, MEMO_THEORY)
    assert count == 2


def test_random_theories_match_the_fresh_evaluator() -> None:
    rng = random.Random(20261018)
    for i in range(200):
        text = render_theory(random_theory(rng, f"draw{i}"))
        got, want = outcome(parse_theory, text), oracle_outcome(parse_theory, text)
        assert got == want
        assert render_theory(got[1]) == render_theory(want[1]) == text


def test_alpha_equivalent_subterms_are_evaluated_once_per_value(monkeypatch) -> None:
    # kd[i,j] leaves j = i only, so each factor is reached once per value of
    # its index; the second is the first with i, p renamed to j, q and finds
    # each of its values there: the two + nodes add twice, not four times.
    # A run of + and - adds through gp_sum(plus, minus); a sum's body values
    # go through gp_sum(values) alone
    text = (
        "sum(i,1..2, sum(j,1..2,"
        " kd[i,j] * (y + sum(p,0..1, a[p,i])) * (y + sum(q,0..1, a[q,j]))))"
    )
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    adds = []
    total = theory_dsl.gp_sum

    def counted(*parts):
        if len(parts) == 2:
            adds.append(1)
        return total(*parts)

    monkeypatch.setattr(theory_dsl, "gp_sum", counted)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert len(adds) == 2
    # the renaming swaps i and j: d(a[j,1];i) shares values with d(a[i,1];j)
    # at swapped bindings, and the sum keeps 2*(d(a[1,1];0) - d(a[0,1];1))
    text = "sum(m,1..2, sum(i,0..1, sum(j,0..1, i*(d(a[i,1];j) - d(a[j,1];i)))))"
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert got[1] == parse_expression("2*d(a[1,1];0) - 2*d(a[0,1];1)", MEMO_THEORY)


def test_a_run_of_terms_is_added_up_at_once(monkeypatch) -> None:
    # kd[i,j] leaves j = i only; each run mixes polynomials and scalars, and
    # the second is the first with i and j swapped, so it finds the first's
    # value: two sums in all, and no partial sum is built by a binary + or -
    text = (
        "sum(i,1..2, sum(j,1..2, kd[i,j]"
        " * (i*y - 1/2 + e[i,j] + y - j) * (j*y - 1/2 + e[j,i] + y - i)))"
    )
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert want[1] == parse_expression("(2*y - 3/2)^2 + (3*y - 5/2)^2", MEMO_THEORY)
    binary, sums = [], []
    for name in ("__add__", "__sub__"):
        op = getattr(GradedPolynomial, name)
        monkeypatch.setattr(
            GradedPolynomial, name, lambda p, q, op=op: binary.append(1) or op(p, q)
        )
    make = theory_dsl._run_of_terms

    def counted(facts, runs):
        run = make(facts, runs)
        return lambda: sums.append(1) or run()

    monkeypatch.setattr(theory_dsl, "_run_of_terms", counted)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert (len(sums), len(binary)) == (2, 0)


def test_a_prefix_of_a_product_is_built_once_per_value_of_its_names(monkeypatch) -> None:
    # (y+i)*(y+1) reads only i: it is built once per i, not once per (i, j),
    # and the whole product once per (i, j), 3 + 3*4 products in all
    text = "sum(i,1..3, sum(j,1..4, (y+i)*(y+1)*(y+j)))"
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    products = []
    mul = GradedPolynomial.__mul__
    monkeypatch.setattr(
        GradedPolynomial, "__mul__", lambda p, q: products.append(1) or mul(p, q)
    )
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert len(products) == 3 + 3 * 4


@pytest.mark.parametrize("text, want", [
    # a scalar run, and runs of one shape but for their signs
    ("sum(i,1..2, (i - 3 - e[i,1] + 1/2) * y)", "-y"),
    ("sum(i,1..2, (i*y + y - 2*y) * (i*y - y + 2*y))", "3*y^2"),
    # a[5,1] runs past a's first axis, and a[7,1] too, or 5 past the base
    # dimension: the first one read raises
    ("y - a[5,1] + y + a[7,1]", None),
    ("sum(i,5..6, y - a[i,1] + y + d(y;i))", None),
    # runs of factors: scalars before, between and after polynomials, and
    # odd factors whose order sets the sign; then the first bad one read
    ("sum(i,1..2, 2*i*k[0,i]*y*3/2*y)", "3*y^2"),
    ("sum(i,1..2, y*i*C[i]*C[1]*y*1/2)", "-y^2*C[1]*C[2]"),
    ("y*a[5,1]*y*a[7,1]", None),
    ("sum(i,5..6, y*a[i,1]*y*d(y;i))", None),
])
def test_runs_keep_their_signs_and_reading_order(text, want) -> None:
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    if want is not None:
        assert got[1] == parse_expression(want, MEMO_THEORY)
    else:
        assert got[0] == "error" and got[3].column == text.index("a[") + 1
