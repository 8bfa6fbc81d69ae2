"""Theory file parsing, resolution, validation, and the render roundtrip."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from nkt import config
from nkt.derivations import GeneralizedVectorField
from nkt.errors import ParseError, SemanticError
from nkt.graded_poly import (
    Coordinate,
    Density,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    render_polynomial,
)
from nkt.multiindex import EMPTY, MultiIndex
from nkt.noether import ROLE_GAUGE, LinearJetOperator
from nkt.randgen import random_theory
from nkt.theory_dsl import (
    ConstantTensor,
    Theory,
    VarDecl,
    kronecker,
    levi_civita,
    minkowski,
    parse_expression,
    parse_theory,
    render_theory,
    resolve_component,
    validate_theory,
)

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"

SCALAR = """
theory scalar
dim 1
field y parity even
lagrangian 1/2 * d(y;x)^2
"""


def v_y() -> GradedPolynomial:
    return jet(parse_theory(SCALAR), "y")


def jet(theory: Theory, text: str, *entries: int) -> GradedPolynomial:
    var = resolve_component(theory, text)
    return GradedPolynomial.variable(JetVariable(var, MultiIndex(tuple(entries))))


class TestDeclarations:
    def test_minimal_theory(self):
        t = parse_theory(SCALAR)
        assert t.name == "scalar"
        assert t.dim == 1
        decl = t.variables["y"]
        assert decl.kind is Kind.FIELD
        assert decl.parity is Parity.EVEN
        assert decl.indices == ()

    def test_indexed_family_and_stage(self):
        t = parse_theory(
            """
            theory t
            dim 2
            field a[mu=0..1,r=1..3] parity even
            ghost c[r=1..3] parity odd
            ghost e parity even stage 0
            """
        )
        assert len(t.variables["a"].components()) == 6
        assert t.variables["e"].stage == 0
        by_kind = {Kind.FIELD: 0, Kind.GHOST: 0}
        for decl in t.variables.values():
            by_kind[decl.kind] += len(decl.components())
        assert by_kind == {Kind.FIELD: 6, Kind.GHOST: 4}

    def test_dim_must_come_before_declarations(self):
        with pytest.raises(ParseError):
            parse_theory("dim 1\ntheory t\nfield y parity even")

    def test_dim_bounds(self):
        for value in ("0", "10", "-1"):
            with pytest.raises(SemanticError) as exc:
                parse_theory(f"theory t\ndim {value}")
            assert str(exc.value) == "dim must be between 1 and 9 (line 2, column 5)"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SemanticError):
            parse_theory("theory t\ndim 1\nfield y parity even\nghost y parity odd")

    def test_reserved_names_rejected(self):
        for bad in ("d", "sum", "witness", "x", "x2"):
            with pytest.raises(SemanticError):
                parse_theory(f"theory t\ndim 1\nfield {bad} parity even")

    def test_component_budget(self):
        with pytest.raises(SemanticError):
            parse_theory("theory t\ndim 1\nfield a[i=0..600] parity even")

    def test_stage_parity_rule(self):
        # odd plain ghosts force even stage-0 and odd stage-1 ghosts
        with pytest.raises(SemanticError):
            parse_theory(
                "theory t\ndim 1\nghost xi parity odd\nghost e parity odd stage 0"
            )
        t = parse_theory(
            """
            theory t
            dim 1
            ghost xi parity odd
            ghost e parity even stage 0
            ghost f parity odd stage 1
            """
        )
        assert t.variables["f"].stage == 1


class TestExpressions:
    def test_el_of_the_minimal_lagrangian(self):
        from nkt.jet_calculus import euler_lagrange

        t = parse_theory(SCALAR)
        y = resolve_component(t, "y")
        derivs = euler_lagrange(t.lagrangian)
        assert derivs[y] == -jet(t, "y", 0, 0)

    def test_nested_total_derivatives(self):
        t = parse_theory(SCALAR)
        assert parse_expression("d(d(y;x);x)", t) == jet(t, "y", 0, 0)
        assert parse_expression("y[;x,x]", t) == jet(t, "y", 0, 0)

    def test_rational_coefficients_and_powers(self):
        t = parse_theory(SCALAR)
        y = jet(t, "y")
        assert parse_expression("-3/4 * y^2 + y", t) == (y * y).scaled(Fraction(-3, 4)) + y
        assert parse_expression("(1 - 2) * y", t) == -y

    def test_unary_minus_binds_looser_than_power(self):
        t = parse_theory(SCALAR)
        y = jet(t, "y")
        assert parse_expression("-y^2", t) == -(y * y)

    def test_sum_binder_in_components_and_directions(self):
        t = parse_theory(
            "theory t\ndim 2\nfield a[mu=0..1] parity even"
        )
        expected = sum(
            (jet(t, f"a[{m}]", m) for m in range(2)), GradedPolynomial.zero()
        )
        assert parse_expression("sum(m,0..1, d(a[m];m))", t) == expected

    def test_sum_span_bound(self):
        t = parse_theory(SCALAR)
        with pytest.raises(ParseError):
            parse_expression("sum(i,0..600, y)", t)

    def test_work_budget_counts_each_subexpression_once_per_binding(self):
        t = parse_theory(SCALAR)
        # y and each inner sum read no index: each is built once, and the
        # outer sums add up copies of it
        text = "sum(i,1..500, sum(j,1..500, sum(k,1..500, y)))"
        assert parse_expression(text, t) == parse_expression("125000000*y", t)
        # y*i*j*k differs at each of the 500^3 bindings
        with pytest.raises(SemanticError, match="expansion work budget") as exc:
            parse_expression(text.replace("y)", "y*i*j*k)"), t)
        assert exc.value.span.column == 1

    @pytest.mark.parametrize("count", [600, 2000, 20000])
    def test_flat_sums_are_walked_without_recursion(self, count):
        # a run of + and - is one node, its sum charged once: count steps
        signs = ["+" if k % 3 else "-" for k in range(1, count)]
        text = SCALAR.replace("1/2 * d(y;x)^2", "y" + "".join(s + "y" for s in signs))
        want = 1 + signs.count("+") - signs.count("-")
        assert parse_theory(text).lagrangian == v_y().scaled(want)

    @pytest.mark.parametrize("count", [500, 2000])
    def test_long_products_are_walked_without_recursion(self, count):
        # a run of * is one node too; scalars sit among its factors
        factors = ["2" if k % 7 == 3 else "y" for k in range(count)]
        text = SCALAR.replace("1/2 * d(y;x)^2", "*".join(factors))
        (y,) = v_y().monomials()
        want = GradedPolynomial({y * factors.count("y"): 2 ** factors.count("2")})
        assert parse_theory(text).lagrangian == want

    def test_a_run_of_factors_is_charged_its_partial_products(self):
        t = parse_theory(SCALAR)
        # k factors of two terms: the partial products are charged 2^2 + ...
        # + 2^k = 2^(k+1) - 4 steps, as a chain of binary products would
        # be; that passes the budget for k = 18 but not for k = 19, where
        # 2^k alone would pass
        assert not parse_expression("*".join(["(y+1)"] * 18), t).is_zero()
        with pytest.raises(SemanticError, match="expansion work budget"):
            parse_expression("*".join(["(y+1)"] * 19), t)

    def test_a_prefix_of_a_product_is_charged_per_value_of_its_names(self):
        t = parse_theory(SCALAR)
        # i*i and i*i*i read only i: they are charged once per i, and the
        # whole product once per (i, j), 751,005 steps in all; charging
        # every partial product per (i, j) would take 1,250,005
        text = "sum(i,1..500, sum(j,1..500, i*i*i*j))"
        assert parse_expression(text, t) == GradedPolynomial.scalar(125250**3)

    def test_a_run_of_terms_is_charged_its_terms(self):
        t = parse_theory(SCALAR)
        # the sum, the run and the k products are charged 500 k steps each,
        # and the leaves 2k: 1 + 1502 k is within the budget for k = 600, not
        # for k = 700; charging each partial sum would take 500 k^2 / 2
        run = "+".join(["i*y"] * 600)
        got = parse_expression(f"sum(i,1..500, {run})", t)
        assert got == v_y().scaled(600 * 500 * 501 // 2)
        run = "+".join(["i*y"] * 700)
        with pytest.raises(SemanticError, match="expansion work budget"):
            parse_expression(f"sum(i,1..500, {run})", t)

    def test_sum_binder_may_not_shadow_declarations(self):
        t = parse_theory(SCALAR)
        with pytest.raises(SemanticError):
            parse_expression("sum(y,0..1, y)", t)

    def test_exponent_bound(self):
        t = parse_theory(SCALAR)
        assert not parse_expression("y^64", t).is_zero()
        with pytest.raises(ParseError):
            parse_expression("y^65", t)

    def test_antifield_references(self):
        t = parse_theory(SCALAR)
        y = resolve_component(t, "y")
        bar = antifield_of(y)
        assert parse_expression("~y", t) == GradedPolynomial.variable(
            JetVariable(bar, EMPTY)
        )
        assert parse_expression("d(~y;x)", t) == GradedPolynomial.variable(
            JetVariable(bar, MultiIndex((0,)))
        )

    def test_division_only_in_literals(self):
        t = parse_theory(SCALAR)
        with pytest.raises(ParseError):
            parse_expression("y/2", t)

    def test_unknown_names_and_bad_indices(self):
        t = parse_theory(SCALAR)
        with pytest.raises(SemanticError):
            parse_expression("z", t)
        with pytest.raises(SemanticError):
            parse_expression("y[1]", t)

    def test_integers_past_the_conversion_limit_are_refused(self):
        t = parse_theory(SCALAR)
        limit = sys.get_int_max_str_digits()
        digits = "7" * (limit + 700)
        with pytest.raises(ParseError) as exc:
            parse_expression(f"y + {digits}*y", t)
        assert str(exc.value) == (
            f"integer of {limit + 700} digits exceeds the limit of {limit} digits"
            " for int/str conversion (line 1, column 5)"
        )
        with pytest.raises(SemanticError) as exc:
            parse_expression(f"y + x{digits}*y", t)
        assert str(exc.value) == (
            f"integer of {limit + 700} digits exceeds the limit of {limit} digits"
            " for int/str conversion (line 1, column 5)"
        )

    # (rendered jet form, the same jet through d(...), the rendered value or
    # the error of the rendered form); a jet form reads as d(ref; dirs), so
    # an error names the same offence in both forms, each at its own span
    JET_FORMS = [
        ("a[0,1;x0]", "d(a[0,1];x0)", "a[0,1;x0]"),
        ("a[0,1;x0,x1,x0]", "d(a[0,1];x0,x1,x0)", "a[0,1;x0,x0,x1]"),
        ("a[0,1;]", "d(a[0,1])", "a[0,1]"),
        ("~a[1,2;x1]", "d(~a[1,2];x1)", "~a[1,2;x1]"),
        ("y[;x0,x1]", "d(y;x0,x1)", "y[;x0,x1]"),
        ("d(y[;x0];x1)", "d(y;x0,x1)", "y[;x0,x1]"),
        ("c[;0,1]", "d(c;0,1)", "c[;x0,x1]"),
        ("~c[;1]*c[;0]", "d(~c;1)*d(c;0)", "c[;x0]*~c[;x1]"),
        ("sum(k, 0..1, a[k,1;k])", "sum(k, 0..1, d(a[k,1];k))",
         "a[0,1;x0] + a[1,1;x1]"),
        ("sum(k, 1..2, g[k,1]*a[0,k;x1])", "sum(k, 1..2, g[k,1]*d(a[0,k];x1))",
         "a[0,1;x1]"),
        ("sum(k, 0..1, sum(m, 1..2, a[k,m;k,x1]*a[k,m;x0]))",
         "sum(k, 0..1, sum(m, 1..2, d(a[k,m];k,x1)*d(a[k,m];x0)))",
         "a[0,1;x0]*a[0,1;x0,x1] + a[0,2;x0]*a[0,2;x0,x1]"
         " + a[1,1;x0]*a[1,1;x1,x1] + a[1,2;x0]*a[1,2;x1,x1]"),
        ("y[;x0] + y[;x1]*y - 1/2*y[;x0,x0]^2", "d(y;x0) + d(y;x1)*y - 1/2*d(y;x0,x0)^2",
         "y*y[;x1] + y[;x0] - 1/2*y[;x0,x0]^2"),
        ("a[3,1;x0]", "d(a[3,1];x0)",
         "index i=3 of a is outside 0..1 (line 1, column 1)"),
        ("a[0;x0]", "d(a[0];x0)", "a takes 2 indices, got 1 (line 1, column 1)"),
        ("a[0,1,2;x0]", "d(a[0,1,2];x0)", "a takes 2 indices, got 3 (line 1, column 1)"),
        ("b[0;x0]", "d(b[0];x0)", "unknown variable 'b' (line 1, column 1)"),
        ("g[1,1;x0]", "d(g[1,1];x0)", "unknown variable 'g' (line 1, column 1)"),
        ("y[0;x0]", "d(y[0];x0)", "y takes 0 indices, got 1 (line 1, column 1)"),
        ("a[k,1;x0]", "d(a[k,1];x0)", "unbound index 'k' (line 1, column 1)"),
        ("y[;z]", "d(y;z)", "unbound direction 'z' (line 1, column 1)"),
        ("y[;x2]", "d(y;x2)", "coordinate x2 outside base dimension (line 1, column 1)"),
        ("y[;x]", "d(y;x)", "write x0..x1 in dimension 2 (line 1, column 1)"),
        ("y[;2]", "d(y;2)", "direction 2 outside base dimension (line 1, column 1)"),
        ("y[;x0,x0,x0,x0,x0,x0,x0,x0,x0]", "d(y;x0,x0,x0,x0,x0,x0,x0,x0,x0)",
         "jet order 9 exceeds the bound 8 (raise NKT_MAX_JET_ORDER to override)"
         " (line 1, column 1)"),
        ("d(y[;x0,x0,x0,x0,x0];x0,x0,x0,x0)", "d(y;x0,x0,x0,x0,x0,x0,x0,x0,x0)",
         "jet order 9 exceeds the bound 8 (raise NKT_MAX_JET_ORDER to override)"
         " (line 1, column 1)"),
        ("1 + a[3,1;x0]", "1 + d(a[3,1];x0)",
         "index i=3 of a is outside 0..1 (line 1, column 5)"),
        ("sum(k, 0..2, a[k,1;x0])", "sum(k, 0..2, d(a[k,1];x0))",
         "index i=2 of a is outside 0..1 (line 1, column 14)"),
        ("sum(k, 0..1, y[;k,x1]) + sum(k, 0..2, y[;k])",
         "sum(k, 0..1, d(y;k,x1)) + sum(k, 0..2, d(y;k))",
         "direction 2 outside base dimension (line 1, column 39)"),
    ]

    @pytest.mark.parametrize("rendered, d_form, want", JET_FORMS)
    def test_the_rendered_jet_form_reads_as_d(self, rendered, d_form, want):
        t = parse_theory(
            "theory t\ndim 2\nfield a[i=0..1,j=1..2] parity even\n"
            "field y parity even\nghost c parity odd\nconstant g = kronecker(2)"
        )
        if "(line" not in want:
            value = parse_expression(rendered, t)
            assert render_polynomial(value, 2) == want
            assert parse_expression(d_form, t) == value
            return
        with pytest.raises(SemanticError) as exc:
            parse_expression(rendered, t)
        assert str(exc.value) == want
        with pytest.raises(SemanticError) as exc:
            parse_expression(d_form, t)
        assert str(exc.value).rsplit(" (line", 1)[0] == want.rsplit(" (line", 1)[0]

    def test_zero_factor_keeps_the_error_of_a_bad_reference(self):
        t = parse_theory("theory t\ndim 2\nfield a[mu=0..1] parity even")
        for text, value, column in (("0 * a[9]", 9, 5), ("sum(i,0..2, 0 * a[i])", 2, 17)):
            with pytest.raises(SemanticError) as exc:
                parse_expression(text, t)
            assert str(exc.value) == (
                f"index mu={value} of a is outside 0..1 (line 1, column {column})"
            )
            assert exc.value.span.column == column

    def test_sum_fails_at_its_first_bad_binding(self):
        t = parse_theory("theory t\ndim 4\nfield y parity even")
        with pytest.raises(SemanticError) as exc:
            parse_expression("sum(i,0..4, d(y;i))", t)
        assert str(exc.value) == "direction 4 outside base dimension (line 1, column 13)"
        assert exc.value.span.column == 13

    def test_jet_order_limit_is_a_semantic_error(self, monkeypatch):
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
        config.reload()
        t = parse_theory(SCALAR)
        assert not parse_expression("d(y;x,x)", t).is_zero()
        with pytest.raises(SemanticError):
            parse_expression("d(y;x,x,x)", t)

    def test_coordinates_enter_scalars(self):
        t = parse_theory("theory t\ndim 2\nfield y parity even")
        p = parse_expression("x0 * d(y;x1)", t)
        y_x1 = JetVariable(resolve_component(t, "y"), MultiIndex((1,)))
        assert p.raw_terms() == (((Coordinate(0), y_x1), 1),)


class TestConstants:
    def test_levi_civita_signs(self):
        eps = levi_civita(3)
        assert eps.entry((1, 2, 3)) == 1
        assert eps.entry((2, 1, 3)) == -1
        assert eps.entry((1, 1, 3)) == 0

    def test_kronecker_and_minkowski(self):
        assert kronecker(3).entry((2, 2)) == 1
        assert kronecker(3).entry((1, 2)) == 0
        g = minkowski(4)
        assert g.entry((0, 0)) == 1
        assert g.entry((3, 3)) == -1

    def test_explicit_table(self):
        t = parse_theory(
            """
            theory t
            dim 1
            field y parity even
            constant q[1..2,1..2] = {
              (1,1): 1/3
              (2,1): -2
            }
            """
        )
        assert t.constants["q"].entry((1, 1)) == Fraction(1, 3)
        assert t.constants["q"].entry((1, 2)) == 0
        assert parse_expression("q[2,1] * y", t) == jet(t, "y").scaled(Fraction(-2))

    def test_table_requires_declared_ranges(self):
        with pytest.raises(SemanticError):
            parse_theory("theory t\ndim 1\nconstant q = { (1): 1 }")

    def test_unknown_builder(self):
        with pytest.raises(ParseError):
            parse_theory("theory t\ndim 1\nconstant q = hadamard(2)")

    def test_constant_contraction_in_sums(self):
        t = parse_theory(
            """
            theory t
            dim 1
            field y[r=1..3] parity even
            constant eps = levi_civita(3)
            """
        )
        p = parse_expression("sum(p,1..3, sum(q,1..3, eps[1,p,q]*y[p]*y[q]))", t)
        assert p.is_zero()  # antisymmetric contraction of a symmetric square


class TestValidation:
    def test_lagrangian_must_be_even(self):
        with pytest.raises(SemanticError):
            parse_theory("theory t\ndim 1\nfield c parity odd\nlagrangian c")

    def test_lagrangian_must_be_ghost_free(self):
        with pytest.raises(SemanticError):
            parse_theory(
                "theory t\ndim 1\nfield y parity even\nghost xi parity odd\n"
                "ghost chi parity odd\nlagrangian y * xi * chi"
            )

    def test_gauge_operator_typing(self):
        base = "theory t\ndim 1\nfield y parity even\nghost xi parity odd\n"
        with pytest.raises(SemanticError):
            # parameter must be a ghost
            parse_theory(base + "operator p role gauge {\n  (y, y, []) : 1\n}")
        with pytest.raises(SemanticError):
            # target must be a field
            parse_theory(base + "operator p role gauge {\n  (xi, xi, []) : 1\n}")

    def test_operator_coefficients_are_field_sector(self):
        base = "theory t\ndim 1\nfield y parity even\nghost xi parity odd\n"
        with pytest.raises(SemanticError):
            parse_theory(base + "operator p role gauge {\n  (xi, y, []) : ~y\n}")
        with pytest.raises(SemanticError):
            parse_theory(base + "operator p role gauge {\n  (xi, y, []) : xi\n}")

    def test_stage_operator_typing(self):
        base = (
            "theory t\ndim 1\nfield y parity even\nghost xi parity odd\n"
            "ghost e parity even stage 0\n"
        )
        t = parse_theory(base + "operator s role stage 0 {\n  (e, xi, []) : y\n}")
        assert t.operators["s"].stage == 0
        with pytest.raises(SemanticError):
            # a stage-0 operator maps stage-0 ghosts to plain ghosts, not fields
            parse_theory(base + "operator s role stage 0 {\n  (e, y, []) : 1\n}")

    def test_validation_reports_the_first_offence(self):
        base = parse_theory(
            "theory t\ndim 1\nfield y parity even\nghost xi parity odd\n"
            "lagrangian y^2\n"
        )
        y, xi = resolve_component(base, "y"), resolve_component(base, "xi")
        z = VariableId(Kind.FIELD, "z", (), Parity.EVEN)  # not declared
        one, var = GradedPolynomial.one(), GradedPolynomial.variable

        def op(*coeffs):
            return {"p": LinearJetOperator(1, ROLE_GAUGE, dict(coeffs))}

        cases = [
            ({"operators": op(((xi, y, EMPTY), var(z)), ((z, y, EMPTY), one))},
             "operator p uses undeclared variable z"),
            ({"operators": op(((z, y, EMPTY), one), ((xi, y, EMPTY), var(z)))},
             "operator p references undeclared z"),
            ({"operators": op(((xi, y, EMPTY), var(y)), ((y, y, EMPTY), var(z)))},
             "operator p uses undeclared variable z"),
            ({"operators": op(((y, y, EMPTY), var(y)), ((xi, y, EMPTY), var(z)))},
             "operator p: parameter y must be a plain ghost"),
            ({"derivations": {"s": GeneralizedVectorField(
                {y: var(antifield_of(y)) * var(z) + var(xi)})}},
             "derivation s uses undeclared variable z"),
            ({"derivations": {"s": GeneralizedVectorField(
                {y: var(antifield_of(y)) * var(y), z: one})}},
             "derivation s may not depend on ~y (antifield)"),
            ({"derivations": {"s": GeneralizedVectorField(
                {z: one, y: var(antifield_of(y))})}},
             "derivation s targets undeclared variable z"),
            ({"lagrangian": var(z) ** 2, "operators": op(((z, y, EMPTY), one))},
             "the lagrangian uses undeclared variable z"),
            ({"lagrangian": Density(var(y) ** 2)},
             "the lagrangian must be a GradedPolynomial, not Density"),
            ({"lagrangian": "y^2"}, "the lagrangian must be a GradedPolynomial, not str"),
        ]
        for changes, message in cases:
            with pytest.raises(SemanticError) as exc:
                validate_theory(replace(base, **changes))
            assert str(exc.value) == message

    def test_a_declaration_covers_its_own_components_only(self):
        base = parse_theory(
            "theory t\ndim 1\nfield a[i=0..1] parity even\nghost xi parity odd\n"
        )
        xi = resolve_component(base, "xi")
        one = GradedPolynomial.one()
        strays = [
            VariableId(Kind.FIELD, "a", (2,), Parity.EVEN),  # out of range
            VariableId(Kind.FIELD, "a", (), Parity.EVEN),  # wrong arity
            VariableId(Kind.FIELD, "a", (0,), Parity.ODD),  # wrong parity
            VariableId(Kind.GHOST, "a", (0,), Parity.EVEN),  # wrong kind
        ]
        for stray in strays:
            op = LinearJetOperator(1, ROLE_GAUGE, {(xi, stray, EMPTY): one})
            with pytest.raises(SemanticError) as exc:
                validate_theory(replace(base, operators={"p": op}))
            message = f"operator p references undeclared {stray.render()}"
            assert str(exc.value) == message
        # antifields resolve through their base variable
        a2 = GradedPolynomial.variable(JetVariable(antifield_of(strays[0]), EMPTY))
        vf = GeneralizedVectorField({resolve_component(base, "a[0]"): a2})
        with pytest.raises(SemanticError) as exc:
            validate_theory(replace(base, derivations={"s": vf}))
        assert str(exc.value) == "derivation s uses undeclared variable ~a[2]"

    def test_validation_names_the_size_limit(self):
        base = parse_theory("theory t\ndim 1\n")
        wide = VarDecl("a", Kind.FIELD, Parity.EVEN, (("i", 1, 30), ("j", 1, 30)))
        table = ConstantTensor("e", ((1, 30), (1, 30)), {})
        cases = [
            ({"variables": {"a": wide}},
             "a declares too many components; the limit is 512"),
            ({"constants": {"e": table}},
             "constant e declares too many entries; the limit is 512"),
            # variables are checked before constants
            ({"constants": {"e": table}, "variables": {"a": wide}},
             "a declares too many components; the limit is 512"),
        ]
        for changes, message in cases:
            with pytest.raises(SemanticError) as exc:
                validate_theory(replace(base, **changes))
            assert str(exc.value) == message

    def test_binder_sugar_expansion(self):
        t = parse_theory(
            """
            theory t
            dim 2
            field a[mu=0..1] parity even
            ghost xi parity odd
            operator p role gauge {
              (xi, a[mu=0..1], [mu]) : 1
              (xi, a[1], [1]) : a[0]
            }
            derivation s {
              a[mu=0..1] : d(xi;mu)
              a[0] : xi*a[1]
            }
            """
        )
        op = t.operators["p"]
        assert len(op.coeffs) == 2
        a0 = resolve_component(t, "a[0]")
        a1 = resolve_component(t, "a[1]")
        xi = resolve_component(t, "xi")
        one = GradedPolynomial.one()
        assert op.coefficient(xi, a0, MultiIndex((0,))) == one
        # entries that land on an expanded key add to it
        assert op.coefficient(xi, a1, MultiIndex((1,))) == one + jet(t, "a[0]")
        s = t.derivations["s"].components
        assert s[a0] == jet(t, "xi", 0) + jet(t, "xi") * jet(t, "a[1]")
        assert s[a1] == jet(t, "xi", 1)

    def test_binder_may_not_shadow_a_declaration(self):
        head = (
            "theory t\ndim 2\nfield a[mu=0..1] parity even\n"
            "ghost xi parity odd\nghost e parity even stage 0\n"
        )
        # operator and certificate entries report binder errors at their
        # "(", derivation entries at the derivation's name
        cases = [
            ("operator p role gauge {\n  (xi, a[xi=0..1], [xi]) : 1\n}", 7, 3),
            ("derivation s {\n  a[xi=0..1] : xi\n}", 6, 12),
            ("certificate e {\n  (a[xi=0..1], [xi]) : 1\n}", 7, 3),
        ]
        for block, line, column in cases:
            with pytest.raises(SemanticError, match="shadows a declaration") as info:
                parse_theory(head + block)
            assert (info.value.span.line, info.value.span.column) == (line, column)
        repeated = "operator p role gauge {\n  (xi[m=0..0], a[m=0..1], [m]) : 1\n}"
        with pytest.raises(SemanticError, match="repeated binder name") as info:
            parse_theory(head + repeated)
        assert (info.value.span.line, info.value.span.column) == (7, 3)

    def test_certificate_labels_resolve_to_stage_ghosts(self):
        text = """
            theory t
            dim 1
            field y parity even
            ghost xi parity odd
            ghost e parity even stage 0
            lagrangian 1/2*y^2
            operator s role stage 0 {
              (e, xi, []) : y
            }
            certificate e {
              witness : y * ~y
            }
            """
        t = parse_theory(text)
        cert = t.certificates["e"]
        assert cert.witness is not None
        with pytest.raises(SemanticError):
            parse_theory(text.replace("certificate e", "certificate nobody"))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "name",
        ["scalar", "scalar_mass", "two_form", "on_shell_pair", "ym_su2"],
    )
    def test_golden_files(self, name):
        text = (THEORY_DIR / f"{name}.nkt").read_text()
        theory = parse_theory(text)
        rendered = render_theory(theory)
        again = parse_theory(rendered)
        assert again == theory
        assert render_theory(again) == rendered

    def test_fuzzed_theories(self):
        rng = random.Random(1105)
        for i in range(100):
            theory = random_theory(rng, f"fuzz{i}")
            assert parse_theory(render_theory(theory)) == theory

    def test_malformed_inputs_raise_cleanly(self):
        nasty = [
            "",
            "theory",
            "theory t",
            "theory t\ndim",
            "theory t\ndim 1\nfield y parity",
            "theory t\ndim 1\nlagrangian (",
            "theory t\ndim 999999999999",
            "theory t\ndim 1\nfield y parity even\nlagrangian y^999999",
            "theory t\ndim 1\nfield y parity even\noperator p role gauge {",
            "theory t\ndim 1\n\x00",
            "theory t\ndim 1\nfield y parity even\nlagrangian y ) y",
            "theory ümlaut\ndim 1",
            "lagrangian y",
            "theory t\ndim 1\nconstant q[1..0] = { (1): 1 }",
        ]
        for text in nasty:
            with pytest.raises((ParseError, SemanticError)):
                parse_theory(text)

    def test_error_spans_point_at_the_offence(self):
        try:
            parse_theory("theory t\ndim 1\nfield y parity even\nlagrangian z + y")
        except SemanticError as err:
            assert err.span is not None
            assert err.span.line == 4
        else:
            pytest.fail("undeclared name accepted")


class TestResolveComponent:
    def test_plain_indexed_and_antifield(self):
        t = parse_theory(
            "theory t\ndim 2\nfield a[mu=0..1] parity even\nghost xi parity odd"
        )
        a1 = resolve_component(t, "a[1]")
        assert a1.components == (1,)
        assert resolve_component(t, "~a[1]") == antifield_of(a1)
        assert resolve_component(t, "~xi").kind is Kind.ANTIGHOST

    def test_rejects_unknowns_and_malformed(self):
        t = parse_theory("theory t\ndim 1\nfield y parity even")
        for bad in ("z", "y[0]", "y[", "y y", "", "y[;x]"):
            with pytest.raises((ParseError, SemanticError)):
                resolve_component(t, bad)
