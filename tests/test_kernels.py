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
memoized: they merge and raise every term of every call afresh.  The merge
loop is also the reference for the merge's block paths, which concatenate
two factor tuples when one sorts wholly before the other, and
scanned_counts, a scan of a monomial's factors, is the reference for the
counts that the kernels take from their operands.
The reference evaluator is the theory-file expression evaluator the package
used before evaluation was memoized and analysed: it evaluates every node
afresh for every index binding, and OracleStatement puts it in the place of
the analysed statement.  All stay here as the oracles the fast kernels must
match exactly.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import even_field, odd_field, odd_ghost
from nkt import config, graded_poly, theory_dsl
from nkt.derivations import GeneralizedVectorField, prolong_apply
from nkt.errors import JetOrderError, NktError, SemanticError, too_many_digits
from nkt.graded_poly import (
    _ONE,
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
    _coordinate_of,
    _D,
    _Env,
    _jet_of,
    _Num,
    _Pow,
    _Ref,
    _resolve_index,
    _Run,
    _Sum,
    Theory,
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


def oracle_summed(ps) -> GradedPolynomial:
    """The sum of ps as the oracle accumulates it, rebuilt as a polynomial."""
    return GradedPolynomial(dict(oracle_sum(ps)))


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
    if isinstance(node, _Run):
        # the binary chain the run stands for, a left fold of its
        # operators; a run of one operand negates it
        values = [oracle_eval(env, operand) for operand in node.operands]
        if len(values) == 1:
            return -values[0]
        ops = node.signs if node.op == "+" else ["*"] * len(values)
        out = values[0]
        for op, value in zip(ops[1:], values[1:]):
            if op == "+":
                out = out + value
            elif op == "-":
                out = out - value
            else:
                out = out * value
        return out
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
        total = reduce(add, parts, GradedPolynomial.zero())
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


class Unremembered(dict):
    """A resolution table that keeps nothing: every reference is checked afresh."""

    def __setitem__(self, key, value) -> None:
        pass


class OracleStatement:
    """Stands in for theory_dsl._Statement: no analysis, no memo, and the
    parse's resolution table left unused."""

    def __init__(self, ast, dim, variables, constants, table, binders=()) -> None:
        self.ast = ast
        self.declarations = (dim, variables, constants)
        # block keys resolve here
        self.env = _Env(dim, variables, constants, {}, Unremembered())

    def __call__(self, bindings: dict) -> GradedPolynomial:
        env = _Env(*self.declarations, dict(bindings), Unremembered())
        return oracle_eval(env, self.ast)


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
    # hash each map in the order it was filled: raw_terms() stores no order
    assert [hash(q) for q in shuffled] == [hash(p)] * 2
    for q in shuffled:
        assert q == p and p == q
        assert q.raw_terms() == p.raw_terms() == oracle_sum([p])
        assert render_polynomial(q, 3) == render_polynomial(p, 3)
        assert hash(q) == hash(p)


@KERNEL_SETTINGS
@given(st.lists(graded_polynomials(), max_size=6))
def test_a_sum_of_lone_factors_is_the_left_fold_of_add(ps) -> None:
    total = gp_sum_of_products(((p,), 1) for p in ps)
    assert total == reduce(add, ps, GradedPolynomial.zero())
    assert total == gp_normalize((s, flat) for p in ps for flat, s in p.raw_terms())
    assert gp_sum_of_products(((p,), 1) for p in reversed(ps)) == total


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
    results.append(total_derivative(p, direction))
    results.append(gp_sum_of_products([((p,), 1), ((q,), 1), ((-p,), 1), ((q,), c)]))
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
    # a summand met twice, at denominator 1 and at 12
    for p in (GradedPolynomial({(x,): 2, (y,): -3}), a):
        assert (p - p).denominator() == 1 and (p - p).is_zero()
        assert p + p == p.scaled(2)
        assert_canonical(p + p)
    assert ((a + a).denominator(), dict((a + a).numerators())) == (6, {(x,): 8, (y,): 21})
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


def oracle_euler_lagrange(partials: dict) -> dict[VariableId, GradedPolynomial]:
    """E_A = sum (-1)^|Lam| d_Lam(dL/dA_Lam) from the oracle's left partials."""
    expected: dict[VariableId, GradedPolynomial] = {}
    for jv, partial in partials.items():
        term = oracle_total_derivative_multi(partial, jv.mi)
        if jv.mi.order & 1:
            term = -term
        expected[jv.var] = expected.get(jv.var, GradedPolynomial.zero()) + term
    return expected


@KERNEL_SETTINGS
@given(graded_polynomials())
def test_euler_lagrange_matches_the_oracle(p) -> None:
    expected = oracle_euler_lagrange({jv: oracle_partial_left(p, jv) for jv in p.variables()})
    clear_memos()
    # cold, then with every monomial's image warm, then from p's own map
    for _ in range(2):
        assert euler_lagrange(GradedPolynomial(dict(p.items()))).components == expected
    assert euler_lagrange(p).components == euler_lagrange(p).components == expected
    with pytest.MonkeyPatch.context() as mp:
        # a cap this small clears every memo many times within one pass
        mp.setattr(graded_poly, "MEMO_CAP", 5)
        assert euler_lagrange(GradedPolynomial(dict(p.items()))).components == expected
    with pytest.MonkeyPatch.context() as mp:
        clearing_part_way(mp)
        assert euler_lagrange(GradedPolynomial(dict(p.items()))).components == expected
    some = sorted(expected, key=lambda var: var.rank)[::2]
    assert euler_lagrange(p, some).components == {var: expected[var] for var in some}


def stepwise_outcome(partials: dict, variables: list, components: dict) -> dict | str:
    """The JetOrderError that raising each left partial dL/dA_Lam by
    repeated total_derivative names, the variables in the order asked and
    each one's partials in canonical jet order; the components asked for
    when none is raised."""
    try:
        for var in variables:
            for jv in sorted((jv for jv in partials if jv.var is var), key=lambda jv: jv.key):
                reduce(total_derivative, jv.mi.entries, partials[jv])
    except JetOrderError as err:
        return str(err)
    return {var: components[var] for var in variables}


def euler_lagrange_outcome(p: GradedPolynomial, variables: list | None) -> dict | str:
    try:
        return euler_lagrange(p, variables).components
    except JetOrderError as err:
        return str(err)


@KERNEL_SETTINGS
@given(graded_polynomials(), st.integers(1, 4), st.booleans())
def test_euler_lagrange_names_the_jet_order_of_the_stepwise_path(p, bound, subset) -> None:
    # drawn polynomials reach order 2, so a bound of 1 or 2 may be passed by
    # a first raise; p's own map is made under the default bound, then read
    # under a lower one and a higher one, each time against a fresh copy
    partials = {jv: oracle_partial_left(p, jv) for jv in p.variables()}
    expected = oracle_euler_lagrange(partials)
    in_rank = sorted(expected, key=lambda var: var.rank)
    variables = in_rank[::-2] if subset else None
    assert euler_lagrange_outcome(p, variables) == {
        var: expected[var] for var in variables or in_rank
    }
    try:
        with pytest.MonkeyPatch.context() as mp:
            for b in (bound, config.DEFAULT_MAX_JET_ORDER + 1):
                mp.setenv("NKT_MAX_JET_ORDER", str(b))
                config.reload()
                want = stepwise_outcome(partials, variables or in_rank, expected)
                for q in (p, GradedPolynomial(dict(p.items()))):
                    assert euler_lagrange_outcome(q, variables) == want
                    kept_under, kept = q._el
                    assert kept_under == b
                    assert kept is None or all(
                        type(e) is GradedPolynomial for e in kept.values()
                    )
    finally:
        # a failing example must not leave the next one drawn under b
        config.reload()


def clearing_part_way(mp: pytest.MonkeyPatch) -> None:
    """Make every other image built clear every memo first, so one pass meets
    images built before and after a clearing, and an image along two or more
    directions is composed from one-direction images across clearings."""
    built = []

    def clearing(build):
        def wrapped(m: Monomial, lam) -> object:
            built.append(m)
            if len(built) % 2 == 0:
                clear_memos()
            return build(m, lam)

        return wrapped

    for name in ("_derive_flat", "_image_along"):
        mp.setattr(graded_poly, name, clearing(getattr(graded_poly, name)))


def derivatives_along(p: GradedPolynomial, lams: list) -> list:
    """d_lam of p for each lam, as one sum and as each monomial's image alone."""
    out = []
    for lam in lams:
        key = lam[0] if len(lam) == 1 else tuple(lam)
        out.append(gp_sum_of_derivatives([(p, lam, 1)]))
        out += [
            GradedPolynomial._from_terms({r: c for c, r in m.image(key)}, 1) for m in p._terms
        ]
    return [(r, r.raw_terms()) for r in out]


@KERNEL_SETTINGS
@given(
    graded_polynomials(),
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3),
)
def test_images_along_a_multi_index_match_the_oracle(p, lams) -> None:
    # directions repeat, mix and come unsorted; each image is kept under its
    # own tuple, and a longer one is composed from shorter ones
    want = []
    for lam in lams:
        mi = MultiIndex(lam)
        want.append(oracle_total_derivative_multi(p, mi))
        want += [
            oracle_total_derivative_multi(GradedPolynomial._from_terms({m: 1}, 1), mi)
            for m in p._terms
        ]
    want = [(r, r.raw_terms()) for r in want]
    clear_memos()
    # cold, then warm
    assert derivatives_along(p, lams) == want
    assert derivatives_along(p, lams) == want
    with pytest.MonkeyPatch.context() as mp:
        # a cap this small clears every memo many times within one image
        mp.setattr(graded_poly, "MEMO_CAP", 5)
        assert derivatives_along(p, lams) == want
    clear_memos()
    with pytest.MonkeyPatch.context() as mp:
        clearing_part_way(mp)
        assert derivatives_along(p, lams) == want


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


def _variational_cases():
    """Every derivation of a bundled theory and of 400 seeded random_theory
    draws, with its theory's Lagrangian."""
    for path in sorted(THEORY_DIR.glob("*.nkt")):
        theory = parse_theory(path.read_text())
        for name, vf in theory.derivations.items():
            yield f"{path.stem}:{name}", vf, theory.lagrangian
    rng = random.Random(23)
    for i in range(400):
        theory = random_theory(rng, f"draw{i}")
        for name, vf in theory.derivations.items():
            if theory.lagrangian is not None:
                yield f"draw{i}:{name}", vf, theory.lagrangian


def test_noethers_second_theorem_predicts_the_variational_residuals() -> None:
    """E_B(theta(L)) = (-1)^{|B||theta|} theta(E_B(L))
    + sum_A sum_Lam (-1)^|Lam| d_Lam((d^L Q^A / d B_Lam) E_A(L)),
    with E(theta(L)), what check_variational decides on, as the oracle."""
    checked = nonzero = 0
    for label, vf, lagrangian in _variational_cases():
        parity = vf.relative_parity()
        if parity is None:
            continue  # mixed relative parity: not a graded derivation
        theta = prolong_apply(vf, lagrangian)
        polys = (theta, lagrangian, *vf.components.values())
        found = {jv.var for p in polys for jv in p.variables()} | set(vf.components)
        variables = sorted(found, key=lambda var: var.rank)
        oracle = euler_lagrange(theta, variables)
        e_l = euler_lagrange(lagrangian, variables)
        for b in variables:
            adjoint = gp_sum_of_derivatives(
                (gp_sum_of_products((((partial, e_l[a]), 1),)), jv.mi.entries,
                 -1 if jv.mi.order & 1 else 1)
                for a, q in vf.components.items()
                for jv, partial in q.left_partials().items() if jv.var == b
            )
            sign = -1 if parity is Parity.ODD and b.parity is Parity.ODD else 1
            predicted = prolong_apply(vf, e_l[b]).scaled(sign) + adjoint
            assert predicted == oracle[b], (label, b.render())
        checked += 1
        nonzero += not oracle.all_zero()
    # the bundled symmetries pass; many drawn derivations leave residuals
    assert checked > 100 and nonzero > 20


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
    total = gp_sum_of_products(((p,), 1) for p in summands)
    assert total.raw_terms() == oracle_sum(summands)
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
    """Each product built alone by *, then summed by the oracle."""
    return oracle_summed([a * b for a, b in pairs])


def summed_weighted_products(products: list) -> GradedPolynomial:
    """Each product built alone by * from the left and scaled, then summed
    by the oracle."""
    one = GradedPolynomial.one()
    return oracle_summed([reduce(mul, factors, one).scaled(w) for factors, w in products])


def summed_derivatives(items: list) -> GradedPolynomial:
    """Each derivative built by repeated total_derivative and scaled, then
    summed by the oracle."""
    return oracle_summed([reduce(total_derivative, lam, p).scaled(w) for p, lam, w in items])


@st.composite
def fused_inputs(draw) -> tuple[list, list, list]:
    """Product pairs, derivative items and weighted products over drawn
    polynomials.

    The pairs reuse their few polynomials, so odd factors meet their equals;
    some pairs have one operand negated, and copies of some pairs and items
    with the other sign cancel part of each sum; any list may be empty.  The
    weighted products have up to five factors, so the leading ones pair up
    before the last pair, and weights of 0 too; copies of some with the
    other sign cancel them, and the pairs join them with drawn weights.
    """
    ps = draw(st.lists(graded_polynomials(), min_size=1, max_size=3))
    pick = st.sampled_from(ps)
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=4))
    pairs += [(-a, b) for a, b in draw(st.lists(st.tuples(pick, pick), max_size=2))]
    pairs += [(a, -b) for a, b in pairs[: draw(st.integers(0, len(pairs)))]]
    lams = st.lists(st.integers(0, 2), max_size=3).map(lambda e: tuple(sorted(e)))
    items = draw(st.lists(st.tuples(pick, lams, st.sampled_from(WEIGHTS)), max_size=4))
    items += [(p, lam, -w) for p, lam, w in items[: draw(st.integers(0, len(items)))]]
    weights = st.sampled_from([*WEIGHTS, 0])
    products = draw(st.lists(st.tuples(st.lists(pick, max_size=5), weights), max_size=4))
    products += [(fs, -w) for fs, w in products[: draw(st.integers(0, len(products)))]]
    products += [((a, b), draw(weights)) for a, b in pairs]
    return pairs, items, products


@KERNEL_SETTINGS
@given(fused_inputs())
def test_fused_sums_match_their_definitions(inputs) -> None:
    pairs, items, products = inputs
    want = [
        summed_products(pairs), summed_derivatives(items), summed_weighted_products(products)
    ]

    def fused() -> list:
        got = [gp_sum_of_products(((a, b), 1) for a, b in pairs),
               gp_sum_of_derivatives(iter(items)), gp_sum_of_products(iter(products))]
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
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("NKT_MAX_JET_ORDER", str(bound))
            config.reload()
            fused = derivative_outcome(gp_sum_of_derivatives, items)
            assert fused == derivative_outcome(summed_derivatives, items)
    finally:
        # a failing example must not leave the lowered bound in force
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
    results.append(gp_sum_of_products(((p,), 1) for p in ps))
    results += [ps[0] - ps[-1], gp_normalize(raw)]
    for p in ps:
        results += [total_derivative(p, d) for d in range(3)]
        results.append(total_derivative(total_derivative(p, direction), direction))
        for partials in (p.left_partials(), p.right_partials()):
            results += [partials[jv] for jv in sorted(partials)]
        # the second call reads p's Euler-Lagrange map
        for el in (euler_lagrange(p).components, euler_lagrange(p).components):
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
    with pytest.MonkeyPatch.context() as mp:
        clearing_part_way(mp)
        assert kernel_outcomes(ps, raw, direction) == cold
    clear_memos()
    assert kernel_outcomes(ps, raw, direction) == cold


def memo_entries() -> int:
    """The entries of every kind of memo."""
    return sum(n for kind, n in memo_sizes().items() if kind != "monomials")


def test_memos_stay_within_their_cap(monkeypatch) -> None:
    cap = 40
    monkeypatch.setattr(graded_poly, "MEMO_CAP", cap)
    clear_memos()
    flushes = []
    monkeypatch.setattr(graded_poly, "clear_memos", lambda: flushes.append(1) or clear_memos())
    rng = random.Random(7)
    tuple_keyed = 0
    variables = _variables(2, 2, True, True)
    pool = jet_pool(variables, 2, 2)
    before = [random_polynomial(rng, variables, 2, max_order=2, max_terms=4) for _ in range(6)]
    built = [x * y for x in before for y in before] + [total_derivative(x, 1) for x in before]
    digests = [(hash(x), x.raw_terms()) for x in built]
    for i in range(300):
        # fresh products and derivatives: factors drawn from 42 jets
        x = gp_normalize([(1, rng.sample(pool, 3)), (Fraction(1, 2), rng.sample(pool, 2))])
        y = gp_normalize([(2, rng.sample(pool, 3))])
        for _ in (
            x * y, total_derivative(x, rng.randint(0, 1)), *x.left_partials().values(),
            *euler_lagrange(x).components.values(), gp_sum_of_derivatives([(y, (0, 1), 1)]),
        ):
            assert len(graded_poly._MEMOIZED) <= cap
        if i % 30 == 0:
            assert memo_entries() == len(graded_poly._MEMOIZED)
            keys = [k for m in graded_poly._MONOMIALS.values() for k in m._memo]
            tuple_keyed += sum([k.__class__ is tuple for k in keys])
    # images along two directions were made, and counted as images
    assert tuple_keyed > 0
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


# -- monomial counts taken from the operands against the scan of the factors ----------


def scanned_counts(flat: tuple) -> tuple:
    """(odd, jets, top) of a canonical factor tuple, read from its factors."""
    jets = tuple(f for f in flat if isinstance(f, JetVariable))
    odd = sum(1 for f in jets if f.var.parity is Parity.ODD)
    return odd, jets, max((f.mi.order for f in jets), default=-1)


def reached_monomials(ms: list, direction: int) -> list:
    """The products of ms, two rounds of images of those and of ms along
    direction, and the partials of all of them."""
    out = {r: None for a in ms for b in ms for _, r in [a.times(b)] if r is not None}
    step = [*ms, *out]
    for _ in range(2):
        step = list({r: None for m in step for _, r in m.image(direction)})
        out.update(dict.fromkeys(step))
    out.update({rest: None for m in [*ms, *out] for _, rest, _, _ in m.partials()})
    return list(out)


@KERNEL_SETTINGS
@given(st.lists(graded_polynomials(), min_size=1, max_size=2), st.integers(0, 2))
def test_kernels_intern_monomials_with_the_counts_of_their_factors(ps, direction) -> None:
    ms = list({m: None for p in ps for m in p._terms})
    for cap in (graded_poly.MEMO_CAP, 5):
        with pytest.MonkeyPatch.context() as mp:
            # an intern table holding only the operands, so that every other
            # monomial reached is built by a kernel from its operands' counts;
            # a cap of 5 clears every memo many times within one pass
            mp.setattr(graded_poly, "_MONOMIALS", {m.factors: m for m in [_ONE, *ms]})
            mp.setattr(graded_poly, "MEMO_CAP", cap)
            clear_memos()
            try:
                reached = reached_monomials(ms, direction)
                assert set(graded_poly._MONOMIALS.values()) <= {_ONE, *ms, *reached}
                for m in reached:
                    assert (m.odd, m.jets, m.top) == scanned_counts(m.factors)
            finally:
                clear_memos()


def test_the_merge_matches_the_merge_loop() -> None:
    y, c = JetVariable(even_field("y")), JetVariable(odd_ghost("c"))
    psi, chi = JetVariable(odd_field("psi")), JetVariable(odd_field("chi"))
    x0, x1 = Coordinate(0), Coordinate(1)
    cases = [
        ((), ()), ((), (y, c)), ((x0, c), ()),
        ((x0,), (x0, x1)), ((x1,), (x0, y)), ((x0, y), (x1,)),
        # an odd factor repeated across the block boundary, and an even one
        ((psi, c), (c,)), ((c,), (c, jet(odd_ghost("c"), 0))), ((y,), (y,)),
        # b sorts wholly before a, with odd factors on both sides
        ((c,), (chi, psi)), ((c, jet(odd_ghost("c"), 0)), (psi,)), ((c,), (psi,)),
        ((c,), (y, psi)), ((chi, c), (psi, y)), ((y, c), (x0, psi)),
    ]
    for a, b in cases:
        got = graded_poly._merge_flat(a, b, scanned_counts(a)[0], scanned_counts(b)[0])
        assert got == oracle_merge_interned(a, b), (a, b)


@KERNEL_SETTINGS
@given(graded_polynomials(), graded_polynomials())
def test_the_merge_of_drawn_monomials_matches_the_merge_loop(p, q) -> None:
    ms = [m.factors for m in (*p._terms, *q._terms)]
    for a in ms:
        for b in ms:
            got = graded_poly._merge_flat(a, b, scanned_counts(a)[0], scanned_counts(b)[0])
            assert got == oracle_merge_interned(a, b)


def test_a_one_shot_verdict_makes_as_many_monomials_and_memo_entries() -> None:
    # the counts of derive-noether --sym brst on ym_su2 in a fresh process:
    # a cheaper miss must not change how many misses there are
    program = (
        "import contextlib, io, json, sys\n"
        "from nkt import cli, graded_poly\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, json.dumps(graded_poly.memo_sizes(), sort_keys=True))\n"
    )
    argv = ["derive-noether", str(THEORY_DIR / "ym_su2.nkt"), "--sym", "brst", "--json"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    want = {
        "monomials": 1573, "products": 1962, "images": 124, "partials": 216,
    }
    for seed in ("1", "2718"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", program, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.stdout == f"0 {json.dumps(want, sort_keys=True)}\n", done.stderr


# -- rendering against the renderer that reads raw_terms() ---------------------------


def reference_render_jet_variable(jv: JetVariable, dim: int) -> str:
    """A jet variable's text, made afresh on every call."""
    prefix = "~" if jv.var.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST) else ""
    comps = ",".join(str(c) for c in jv.var.components)
    dirs = ",".join("x" if dim == 1 else f"x{d}" for d in jv.mi.entries)
    if jv.mi.order:
        return f"{prefix}{jv.var.name}[{comps};{dirs}]"
    if comps:
        return f"{prefix}{jv.var.name}[{comps}]"
    return prefix + jv.var.name


def reference_render(p: GradedPolynomial, dim: int) -> str:
    """render_polynomial as it was written on raw_terms(): one reduced
    Fraction per term, and each jet's text made afresh."""

    def power(token: str, exp: int) -> str:
        return token if exp == 1 else f"{token}^{exp}"

    def runs(factors: tuple) -> list:
        out: list = []
        for f in factors:
            if out and out[-1][0] is f:
                out[-1] = (f, out[-1][1] + 1)
            else:
                out.append((f, 1))
        return out

    def join_signed(signed) -> str:
        return " ".join(
            (("-" if sign < 0 else "") if i == 0 else ("- " if sign < 0 else "+ ")) + body
            for i, (sign, body) in enumerate(signed)
        )

    def coefficient_parts(coords: tuple, q: Fraction) -> tuple[int, list[str]]:
        mag, parts = abs(q), []
        if mag != 1 or not coords:
            try:
                parts.append(str(mag))
            except ValueError:
                raise NktError(too_many_digits("a coefficient")) from None
        for c, exp in runs(coords):
            parts.append(power("x" if dim == 1 else f"x{c.k}", exp))
        return (-1 if q < 0 else 1), parts

    def body(jets: tuple, coefficient: list) -> tuple[int, str]:
        factors = [power(reference_render_jet_variable(jv, dim), e) for jv, e in runs(jets)]
        if len(coefficient) == 1:
            sign, parts = coefficient_parts(*coefficient[0])
            if factors and parts == ["1"]:
                parts = []
            return sign, "*".join(parts + factors)
        inner = join_signed(
            (sign, "*".join(parts))
            for sign, parts in (coefficient_parts(c, q) for c, q in coefficient)
        )
        return 1, "*".join([f"({inner})"] + factors)

    if p.is_zero():
        return "0"
    groups: list = []
    for flat, q in p.raw_terms():
        n = sum(1 for f in flat if type(f) is Coordinate)
        coords, jets = flat[:n], flat[n:]
        if groups and groups[-1][0] == jets:
            groups[-1][1].append((coords, q))
        else:
            groups.append((jets, [(coords, q)]))
    return join_signed(body(jets, coefficient) for jets, coefficient in groups)


@KERNEL_SETTINGS
@given(graded_polynomials(), st.integers(1, 3), st.booleans())
def test_rendering_matches_the_fraction_renderer(p, dim, other_first) -> None:
    # every jet keeps its text in dimension 1 and in dimension 2 and up: ask
    # for both, in either order, and once more after both are kept
    other = 2 if dim == 1 else 1
    for d in (other, dim, other, dim) if other_first else (dim, other, dim, other):
        assert render_polynomial(p, d) == reference_render(p, d)


def test_a_jet_keeps_its_text_in_both_dimension_forms() -> None:
    fresh = VariableId(Kind.FIELD, "rendered_once", (1, 2), Parity.EVEN)
    jv = JetVariable(fresh, MultiIndex((0, 1)))
    anti = GradedPolynomial.variable(JetVariable(antifield_of(fresh), MultiIndex((1,))))
    x0, x1 = GradedPolynomial.coordinate(0), GradedPolynomial.coordinate(1)
    # (2 + x0)*jv - 3/4*x1*jv^2*~jv: a coordinate group, a negative
    # non-integer coefficient, a power and an antifield
    p = (GradedPolynomial.scalar(2) + x0) * GradedPolynomial.variable(jv)
    p = p - x1.scaled(Fraction(3, 4)) * GradedPolynomial.variable(jv) ** 2 * anti
    want = {
        1: "(2 + x)*rendered_once[1,2;x,x] - 3/4*x*rendered_once[1,2;x,x]^2"
           "*~rendered_once[1,2;x]",
        2: "(2 + x0)*rendered_once[1,2;x0,x1] - 3/4*x1*rendered_once[1,2;x0,x1]^2"
           "*~rendered_once[1,2;x1]",
    }
    for dim in (1, 2, 3, 1):
        assert render_polynomial(p, dim) == want[min(dim, 2)] == reference_render(p, dim)


@pytest.mark.parametrize("q", [
    Fraction(10**5000, 3), Fraction(-3, 10**5000), Fraction(10**5000 + 1, 2 * 10**4400)
])
def test_a_coefficient_past_the_digit_limit_is_refused_alike(q) -> None:
    y = GradedPolynomial.variable(VariableId(Kind.FIELD, "y", (), Parity.EVEN))
    p = y.scaled(q) + GradedPolynomial.coordinate(0).scaled(q) * y
    for subject in (p, y.scaled(q), GradedPolynomial.scalar(q)):
        with pytest.raises(NktError) as want:
            reference_render(subject, 1)
        with pytest.raises(NktError) as got:
            render_polynomial(subject, 1)
        assert str(got.value) == str(want.value)
        assert "a coefficient exceeds the limit" in str(got.value)


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

    Counts the walk's spreads of that node, one per evaluation; the products
    counted below read every name their sums bind, so they are not memoized
    and each evaluation spreads them.
    """
    calls = []
    spread = theory_dsl._spread

    def counted(env, node, *rest):
        # a node keeps its location, (cursor, token index), not its span
        if isinstance(node, _Run) and node.op == "*":
            cursor, token = node.span
            if cursor.span_of(token).start == start:
                calls.append(node)
        return spread(env, node, *rest)

    monkeypatch.setattr(theory_dsl, "_spread", counted)
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


def sums_made(monkeypatch) -> list[list]:
    """The lists of weighted products that the evaluator adds up, one per
    polynomial it accumulates, as parses made after this call pass them."""
    sums, kernel = [], theory_dsl.gp_sum_of_products
    monkeypatch.setattr(
        theory_dsl, "gp_sum_of_products",
        lambda parts: sums.append(parts) or kernel(parts),
    )
    return sums


def test_alpha_equivalent_subterms_are_evaluated_once_per_value(monkeypatch) -> None:
    # kd[i,j] leaves j = i only, so each factor is reached once per value of
    # its index; the second is the first with i, p renamed to j, q and finds
    # each of its values there: the two + nodes are added up twice, not four
    # times, each from y and its sum's two terms.  The statement adds up the
    # two products once
    text = (
        "sum(i,1..2, sum(j,1..2,"
        " kd[i,j] * (y + sum(p,0..1, a[p,i])) * (y + sum(q,0..1, a[q,j]))))"
    )
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    sums = sums_made(monkeypatch)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert [len(parts) for parts in sums] == [3, 3, 2]
    # the renaming swaps i and j: d(a[j,1];i) shares values with d(a[i,1];j)
    # at swapped bindings, and the sum keeps 2*(d(a[1,1];0) - d(a[0,1];1))
    text = "sum(m,1..2, sum(i,0..1, sum(j,0..1, i*(d(a[i,1];j) - d(a[j,1];i)))))"
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert got[1] == parse_expression("2*d(a[1,1];0) - 2*d(a[0,1];1)", MEMO_THEORY)


def test_subterms_with_other_name_patterns_share_no_values() -> None:
    # the two products differ only in which index the last factor reads, so
    # they are not renamings of each other, though each has the factors and
    # the names of the other
    text = "sum(i,0..1, sum(j,0..0, a[i,1]*a[j,1]*a[i,2] + a[i,1]*a[j,1]*a[j,2]))"
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    want = (
        "a[0,1]*(a[0,1]*a[0,2] + a[1,1]*a[1,2]) + a[0,1]*a[0,2]*(a[0,1] + a[1,1])"
    )
    assert got[1] == parse_expression(want, MEMO_THEORY)


def test_sums_skip_the_entries_outside_their_range() -> None:
    # k[1,2] is nonzero, but j runs over 1..1: only k[0,1] = 1 is summed
    text = "sum(i,0..1, sum(j,1..1, k[i,j]*y))"
    got = outcome(parse_expression, text, MEMO_THEORY)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert got[1] == parse_expression("y", MEMO_THEORY)


def test_a_run_of_terms_is_added_up_at_once(monkeypatch) -> None:
    # kd[i,j] leaves j = i only; each run mixes polynomials and scalars, and
    # the second is the first with i and j swapped, so it finds the first's
    # value: each run is added up once per value, from its four nonzero terms
    # (e[i,i] = 0 adds nothing), and no partial sum is built by a binary + or -
    text = (
        "sum(i,1..2, sum(j,1..2, kd[i,j]"
        " * (i*y - 1/2 + e[i,j] + y - j) * (j*y - 1/2 + e[j,i] + y - i)))"
    )
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert want[1] == parse_expression("(2*y - 3/2)^2 + (3*y - 5/2)^2", MEMO_THEORY)
    binary = []
    for name in ("__add__", "__sub__"):
        op = getattr(GradedPolynomial, name)
        monkeypatch.setattr(
            GradedPolynomial, name, lambda p, q, op=op: binary.append(1) or op(p, q)
        )
    sums = sums_made(monkeypatch)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert ([len(parts) for parts in sums], len(binary)) == ([4, 4, 2], 0)


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


@pytest.mark.parametrize("text", [
    # nested sums, streamed into one accumulator, beside a memoized factor
    "sum(i,1..2, sum(j,0..1, i*a[j,i] - sum(r,1..2, e[i,r]*C[r]*y)))",
    "sum(i,1..2, (y + sum(j,0..1, a[j,i])) * sum(j,0..1, j*a[j,i] - 1/3))",
    # negated runs, nested in runs and sums
    "-(y - 2*a[0,1]) - -(x0 + y)*y",
    "-sum(i,1..2, -(C[i] - y) - -(3/2 - i))",
    "-(-(-y))",
    "x0*y - y - 3/4 + a[1,2] - 1 - -C[1]*C[2]",
    # fraction scales before, between and after the factors, and of a sum
    "3/4 * sum(i,1..2, 1/2 * k[0,i] * y * 2/3) - 5/6*(y + 1/3)*7/5",
    "-1/4 * sum(i,1..2, sum(j,1..2, kd[i,j]*(a[0,i] - 1/2*y)*(a[1,j] + 2/3)))",
    # odd factors out of canonical order, in products and under sums
    "C[2]*y*C[1] - 1/2*C[1]*C[2]*y + C[2]*C[2]",
    "sum(i,1..2, sum(j,1..2, e[i,j]*C[j]*C[i]*1/2))",
    "sum(i,1..2, sum(j,1..2, C[i]*d(y;0)*C[j]*e[j,i]))",
    # zero entries in a sum plan: z[1,0] is stored as 0, z[2,1] is not stored
    "sum(i,1..2, sum(j,0..1, z[i,j]*C[i]*a[j,1]))",
    "sum(i,1..2, sum(j,0..1, z[i,j] * (C[i] + sum(r,1..2, z[r,j]*a[j,r]))))",
    # a sum of numbers only, which stays a number
    "sum(i,1..2, sum(j,0..1, i*j - 1/3)) * y",
    # errors: the first bad operand read raises, under a sum too
    "sum(i,1..2, sum(j,0..2, z[i,j]*a[j,1]))",
    "-(y - a[5,1]) * -C[7]",
    "sum(i,1..2, 1/2 * (y - C[i]) * -(a[i,1] + y))",
])
def test_accumulated_runs_and_sums_match_the_fresh_evaluator(text, monkeypatch) -> None:
    # parse_expression walks a sum-free text as parsed and plans any other;
    # planned_outcome plans every text, and unplanned_outcome none
    want = oracle_outcome(parse_expression, text, MEMO_THEORY)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    planned, unplanned = planned_outcome(text, MEMO_THEORY), unplanned_outcome(text, MEMO_THEORY)
    assert planned[0] == unplanned[0] == want
    # lists added up at every second product give the same values, errors
    # and charges, and no list the kernel adds up is longer
    lengths, kernel = [], theory_dsl.gp_sum_of_products
    monkeypatch.setattr(
        theory_dsl, "gp_sum_of_products",
        lambda parts: lengths.append(len(parts)) or kernel(parts),
    )
    monkeypatch.setattr(theory_dsl, "_FOLD_AT", 2)
    assert outcome(parse_expression, text, MEMO_THEORY) == want
    assert planned_outcome(text, MEMO_THEORY) == planned
    assert unplanned_outcome(text, MEMO_THEORY) == unplanned
    assert max(lengths, default=0) <= 2


# -- the walk without and with the plan ------------------------------------------

SUM_FREE_THEORY = parse_theory("""\
theory sum_free
dim 2
field y parity even
field psi[k=1..2] parity odd
field a[mu=0..1] parity even
ghost C parity odd
constant k[0..1,1..2] = {
  (0,1): 1
  (1,2): -2/3
}
""")
SUM_FREE_LEAVES = (
    "y", "~y", "x0", "C", "2", "3/4", "psi[1]", "~psi[2]", "~C", "x1", "a[0]", "0",
    "1", "5/6", "psi[2]", "~a[1]", "d(y;x0)", "d(psi[1];0,1)", "y[;x1,x1]",
    "d(a[1];x0)", "k[0,1]", "k[1,2]", "k[1,1]",
)
# an unknown name, a component out of range, a direction and a coordinate
# past dim, a jet past the order bound (8), a constant index out of range
SUM_FREE_ERRORS = ("w", "psi[3]", "d(y;2)", "x2", "d(y;0,0,0,0,0,0,0,0,0)", "k[2,1]")


@st.composite
def sum_free_expressions(draw, depth: int = 0) -> str:
    """Expression text over SUM_FREE_THEORY without sums."""
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(SUM_FREE_ERRORS))
        return draw(st.sampled_from(SUM_FREE_LEAVES))
    kind = draw(st.sampled_from(["+", "*", "neg", "pow", "long"]))
    if kind == "neg":
        return f"-({draw(sum_free_expressions(depth + 1))})"
    if kind == "pow":
        return f"({draw(sum_free_expressions(depth + 1))})^{draw(st.integers(0, 4))}"
    if kind == "long":
        # few distinct values, so a long run of + adds up to few terms and
        # its power is cheap to build, and charged as such
        leaves = draw(st.lists(st.sampled_from(SUM_FREE_LEAVES[:6]), min_size=20, max_size=80))
        if draw(st.booleans()):
            return "*".join(leaves)
        return f"({'+'.join(leaves)})^{draw(st.integers(1, 4))}"
    operands = draw(st.lists(sum_free_expressions(depth + 1), min_size=2, max_size=5))
    text = f"({operands[0]})"
    for operand in operands[1:]:
        text += f" {kind if kind == '*' else draw(st.sampled_from('+-'))} ({operand})"
    return text


def statement_outcome(text: str, theory: Theory, binders: tuple) -> tuple[tuple, int]:
    """The outcome of text evaluated as one statement with binders, each
    bound to its low end, as parse_expression evaluates it without any; and
    the expansion work the evaluation charged."""
    cursor = theory_dsl._TheoryParser(text)._next()
    ast = theory_dsl._parse_expr(cursor)
    cursor.expect_end()
    declared = (theory.dim, theory.variables, theory.constants)
    stmt = theory_dsl._Statement(ast, *declared, {}, binders)
    return outcome(stmt, {name: lo for name, lo, _ in binders}), stmt.env.work


def unplanned_outcome(text: str, theory: Theory = SUM_FREE_THEORY) -> tuple[tuple, int]:
    """statement_outcome without binders and with _analyse out of reach: a
    sum-free text is walked as parsed, and so here is a text with sums."""

    def analysed(*args):
        raise AssertionError("a statement walked as parsed was analysed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory_dsl, "_analyse", analysed)
        if "sum(" in text:
            mp.setattr(theory_dsl, "_sum_free", lambda node: True)
        return statement_outcome(text, theory, ())


def planned_outcome(text: str, theory: Theory = SUM_FREE_THEORY) -> tuple[tuple, int]:
    """statement_outcome with the statement analysed and planned: a binder
    of one value, which the expression does not read, forces it."""
    return statement_outcome(text, theory, (("unused", 1, 1),))


@KERNEL_SETTINGS
@given(sum_free_expressions())
def test_the_unplanned_walk_matches_the_planned_walk(text) -> None:
    (got, work), (planned, planned_work) = unplanned_outcome(text), planned_outcome(text)
    assert got == planned
    # both charge each product and power as they build it, the planned
    # walk less what a memo hit saves
    assert planned_work <= work
    if got[0] == "value" or "budget" not in got[2]:
        assert got == oracle_outcome(parse_expression, text, SUM_FREE_THEORY)


@pytest.mark.parametrize("text, message, column", [
    ("y + 2*w", "unknown name 'w'", 7),
    ("y*(psi[1] - psi[3])", "index k=3 of psi is outside 1..2", 13),
    ("-d(y;0,2)^2", "direction 2 outside base dimension", 2),
    ("d(y;0,0,0,0,0,0,0,0,0) + x2", "jet order 9 exceeds the bound 8"
     " (raise NKT_MAX_JET_ORDER to override)", 1),
    ("C*k[2,1]", "index 2 of k is outside 0..1", 3),
    # the first of two bad leaves read raises, the later power too
    ("(x2*y + w)^3", "coordinate x2 outside base dimension", 2),
    # 50 y's add up to one term, whose 4th power is cheap: the unknown w,
    # read first, raises
    (f"w*({'+'.join(['y'] * 50)})^4", "unknown name 'w'", 1),
    # 6 terms to the 40th: 6 * C(45, 39) steps pass the budget at the ^,
    # before the power is built and before the unknown w is read
    ("(y + x0 + x1 + d(y;x0) + d(y;x1) + d(y;x0,x1))^40*w", "expansion work"
     f" budget of {theory_dsl.MAX_EXPANSION_WORK} steps exceeded", 47),
    # a run of * is charged once its factors are read: 2^19 steps would
    # not pass the budget, and the unknown w raises first
    ("*".join(["(y+1)"] * 19) + "*w", "unknown name 'w'", 115),
])
def test_the_unplanned_walk_raises_what_the_planned_walk_raises(
    text, message, column
) -> None:
    (got, work), (planned, planned_work) = unplanned_outcome(text), planned_outcome(text)
    assert (got, work) == (planned, planned_work)
    assert got[:3] == ("error", SemanticError, f"{message} (line 1, column {column})")


# an unknown name, a component out of range, a direction and a coordinate
# past dim, an unbound index, a jet past the order bound (8), a constant
# index out of range; a sum whose index shadows a declaration is drawn too
PLAN_ERRORS = ("w", "C[3]", "d(y;2)", "x2", "a[t,1]", "d(y;0,0,0,0,0,0,0,0,0)", "k[2,1]")


@st.composite
def nested_sum_expressions(draw, scope: tuple[str, ...] = (), depth: int = 0) -> str:
    """Expression text over MEMO_THEORY with nested sums: the forms of
    expressions, a bad leaf, and twins, an operand and its copy with a sum
    index renamed, contracted with a constant that stores zeros or not."""
    if depth >= 2:
        return draw(expressions(scope, 3))
    kind = draw(st.sampled_from(["expr", "sum", "sum", "twin", "twin", "bad", "+", "*"]))
    if kind == "expr":
        return draw(expressions(scope, depth + 1))
    if kind == "bad":
        bad = draw(st.sampled_from([*PLAN_ERRORS, "shadow"]))
        if bad == "shadow":
            return f"sum(y,0..1, {draw(nested_sum_expressions(scope, depth + 1))})"
        return bad
    if kind in ("+", "*"):
        operands = draw(st.lists(nested_sum_expressions(scope, depth + 1), min_size=2, max_size=3))
        return f" {kind} ".join(f"({operand})" for operand in operands)
    name = draw(st.sampled_from(SUM_NAMES))
    body = draw(nested_sum_expressions(tuple(sorted({*scope, name})), depth + 1))
    if kind == "sum":
        return f"sum({name},{draw(st.sampled_from(SUM_RANGES))}, {body})"
    # the twin reads a name the body does not, where name is read, so the
    # two are equal up to renaming; with no such name it is the body again
    other = next((n for n in ("p", "q") if not re.search(rf"\b{n}\b", body)), name)
    twin = re.sub(rf"\b{name}\b", other, body)
    const = draw(st.sampled_from(sorted(CONSTANT_AXES)))
    first, second = CONSTANT_AXES[const]
    return (
        f"sum({name},{first}, sum({other},{second},"
        f" {const}[{name},{other}] * ({body}) * ({twin})))"
    )


def memo_terms_added(mp: pytest.MonkeyPatch) -> list[int]:
    """The term counts of the memoized polynomials that walks made after
    this call add to a list as a product of one, which charges them."""
    added, product = [], theory_dsl._product

    def spying(env, parts, w, operands, node) -> None:
        product(env, parts, w, operands, node)
        if w and len(operands) == 1 and type(operands[0]) is theory_dsl._Memo:
            memo = operands[0]
            value = memo.table[memo.get(env.bindings)]
            if type(value) is GradedPolynomial:
                added.append(len(value.raw_terms()))

    mp.setattr(theory_dsl, "_product", spying)
    return added


@KERNEL_SETTINGS
@given(nested_sum_expressions(), st.sampled_from([None, 60]))
def test_the_plan_keeps_every_outcome_and_bounds_its_work(text, budget) -> None:
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(theory_dsl, "MAX_EXPANSION_WORK", budget)
        got, work = unplanned_outcome(text, MEMO_THEORY)
        added = memo_terms_added(mp)
        planned, planned_work = planned_outcome(text, MEMO_THEORY)
    if got[0] == "error" and "budget" in got[2]:
        return  # the plan's memos and skipped zeros may let it finish
    assert planned == got
    # a memo builds its value once per value of its names, and skipped
    # zeros add nothing; but a memoized run or sum that the unplanned walk
    # spreads into its list, one product per term, the planned walk adds as
    # one product of its value, charged its terms: so planned work can pass
    # the unplanned work, by at most those terms
    assert planned_work <= work + sum(added)
    assert got == oracle_outcome(parse_expression, text, MEMO_THEORY)


@pytest.mark.parametrize("lagrangian, message, column", [
    # the unknown w is read before the power's charge would refuse it
    ("w*(y+d(y;x)+x+1)^64", "unknown name 'w'", 12),
    # 4 * C(67, 63) steps are refused at the ^ before w is read
    ("(y+d(y;x)+x+1)^64*w", "expansion work budget of"
     f" {theory_dsl.MAX_EXPANSION_WORK} steps exceeded", 26),
])
def test_a_budget_refusal_and_a_leaf_error_come_in_reading_order(
    lagrangian, message, column
) -> None:
    text = f"theory t\ndim 1\nfield y parity even\nlagrangian {lagrangian}\n"
    got = outcome(parse_theory, text)
    assert got[:3] == ("error", SemanticError, f"{message} (line 4, column {column})")
    assert (got[3].line, got[3].column) == (4, column)
