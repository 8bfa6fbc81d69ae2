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
The reference evaluator is the theory-file expression evaluator the package
used before evaluation was memoized: it evaluates every node afresh for
every index binding.  All stay here as the oracles the fast kernels must
match exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkt import theory_dsl
from nkt.derivations import GeneralizedVectorField, prolong_apply
from nkt.errors import NktError, SemanticError
from nkt.graded_poly import (
    Coordinate,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    _kind_rank,
    antifield_of,
    gp_normalize,
    gp_sum,
    render_polynomial,
)
from nkt.jet_calculus import (
    euler_lagrange,
    partial_left,
    partial_right,
    total_derivative,
)
from nkt.multiindex import EMPTY, MultiIndex
from nkt.randgen import jet_pool, random_polynomial, random_scalar
from nkt.theory_dsl import (
    _COORD_RE,
    _BracketJet,
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
    if isinstance(node, (_D, _BracketJet)):
        return GradedPolynomial.variable(_jet_of(env, node))
    if isinstance(node, _Ref):
        return oracle_eval_ref(env, node)
    raise SemanticError("malformed expression")


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
        GradedPolynomial.from_accumulator(acc, k * p.denominator()),
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
        mp.setattr(theory_dsl, "_eval", oracle_eval)
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
    monkeypatch.setattr(theory_dsl, "_eval", oracle_eval)
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
    """How often parse(text, *args) evaluates the product whose * is at start."""
    calls = []
    eval_node = theory_dsl._eval_node

    def counted(env, node):
        if isinstance(node, _Binary) and node.span.start == start:
            calls.append(node)
        return eval_node(env, node)

    monkeypatch.setattr(theory_dsl, "_eval_node", counted)
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
