"""Differential tests: the one-pass memoized kernels against their definitions.

The reference partials below are the per-variable scans the package used
before the one-pass kernel: each rescans every term of p for one jet
variable.  The reference evaluator is the theory-file expression evaluator
the package used before evaluation was memoized: it evaluates every node
afresh for every index binding.  Both stay here as the oracles the fast
kernels must match exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkt import theory_dsl
from nkt.derivations import GeneralizedVectorField, prolong_apply
from nkt.errors import NktError, SemanticError
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
"""
MEMO_THEORY = parse_theory(MEMO_THEORY_TEXT)

# Sums reuse these names, nested and side by side; r also shadows the binder
# of the derivation entry below.  The 0..2 range runs past a's first axis and
# past the base dimension, so some draws fail part way through a sum.
SUM_NAMES = ("i", "j", "r")
SUM_RANGES = ("0..1", "1..2", "1..1", "0..2")


@st.composite
def expressions(draw, scope: tuple[str, ...] = (), depth: int = 0) -> str:
    """Expression text over MEMO_THEORY whose free index names lie in scope."""

    def index(*values: int) -> str:
        return draw(st.sampled_from([*map(str, values), *scope]))

    def direction() -> str:
        return draw(st.sampled_from(["0", "1", "x0", "x1", *scope]))

    if depth >= 4 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.sampled_from(
            ["num", "num", "coord", "y", "dy", "a", "da", "ajet", "C", "e", "k"]
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
        if leaf == "e":
            return f"e[{index(1, 2)},{index(1, 2)}]"
        return f"k[{index(0, 1)},{index(1, 2)}]"
    kind = draw(st.sampled_from(["+", "-", "*", "*", "neg", "pow", "sum", "sum"]))
    if kind == "sum":
        name = draw(st.sampled_from(SUM_NAMES))
        body = draw(expressions(tuple(sorted({*scope, name})), depth + 1))
        return f"sum({name},{draw(st.sampled_from(SUM_RANGES))}, {body})"
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
