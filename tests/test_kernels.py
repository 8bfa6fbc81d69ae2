"""Differential tests: the one-pass memoized kernels against their definitions.

The reference partials below are the per-variable scans the package used
before the one-pass kernel: each rescans every term of p for one jet
variable.  They stay here as the oracle the fast kernels must match exactly.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from nkt.derivations import GeneralizedVectorField, prolong_apply
from nkt.graded_poly import (
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    Scalar,
    VariableId,
    antifield_of,
    gp_normalize,
    gp_sum,
)
from nkt.jet_calculus import (
    euler_lagrange,
    partial_left,
    partial_right,
    total_derivative_multi,
)
from nkt.multiindex import EMPTY
from nkt.randgen import random_polynomial

KERNEL_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


# -- the reference oracle -------------------------------------------------------


def oracle_partial_left(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Left graded derivative: the sign counts odd factors left of the hit."""
    acc: dict[tuple[JetVariable, ...], Scalar] = {}
    v_odd = v.parity is Parity.ODD
    for flat, s in p.raw_terms():
        odd_before = 0
        for i, jv in enumerate(flat):
            if jv == v:
                rest = flat[:i] + flat[i + 1 :]
                contrib = -s if (v_odd and odd_before & 1) else s
                cur = acc.get(rest)
                acc[rest] = contrib if cur is None else cur + contrib
            if jv.parity is Parity.ODD:
                odd_before += 1
    return GradedPolynomial(acc)


def oracle_partial_right(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Right graded derivative: the sign counts odd factors right of the hit."""
    acc: dict[tuple[JetVariable, ...], Scalar] = {}
    v_odd = v.parity is Parity.ODD
    for flat, s in p.raw_terms():
        odd_total = sum(1 for jv in flat if jv.parity is Parity.ODD)
        odd_before = 0
        for i, jv in enumerate(flat):
            here_odd = 1 if jv.parity is Parity.ODD else 0
            if jv == v:
                odd_after = odd_total - odd_before - here_odd
                rest = flat[:i] + flat[i + 1 :]
                contrib = -s if (v_odd and odd_after & 1) else s
                cur = acc.get(rest)
                acc[rest] = contrib if cur is None else cur + contrib
            odd_before += here_odd
    return GradedPolynomial(acc)


# -- random graded polynomials --------------------------------------------------


def _variables(n_even: int, n_odd: int, ghosts: bool, antifields: bool) -> list[VariableId]:
    out = [VariableId(Kind.FIELD, "y", (i,), Parity.EVEN) for i in range(n_even)]
    out += [VariableId(Kind.FIELD, "psi", (i,), Parity.ODD) for i in range(n_odd)]
    if ghosts:
        out.append(VariableId(Kind.GHOST, "C", (), Parity.ODD))
    if antifields:
        out += [antifield_of(var) for var in out[:2]]
    return out


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
    p = random_polynomial(
        rng,
        variables,
        draw(st.integers(1, 3)),
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
@given(st.lists(graded_polynomials(), max_size=6))
def test_gp_sum_is_the_left_fold_of_add(ps) -> None:
    total = gp_sum(ps)
    assert total == reduce(add, ps, GradedPolynomial.zero())
    assert total == gp_normalize((s, flat) for p in ps for flat, s in p.raw_terms())
    assert gp_sum(reversed(ps)) == total


# -- the callers against the oracle -----------------------------------------------


@KERNEL_SETTINGS
@given(graded_polynomials())
def test_euler_lagrange_matches_the_oracle(p) -> None:
    expected: dict[VariableId, GradedPolynomial] = {}
    for jv in p.variables():
        term = total_derivative_multi(oracle_partial_left(p, jv), jv.mi)
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
            expected = expected + total_derivative_multi(component, jv.mi) * inner
    assert prolong_apply(vf, p) == expected
