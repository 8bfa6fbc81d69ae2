"""The eta transform, operator composition, and Noether's second theorem."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import even_field, even_ghost, odd_ghost, v

from nkt import cli, derivations, jet_calculus, noether
from nkt.derivations import GeneralizedVectorField, check_variational, contract_with_EL
from nkt.graded_poly import Density, GradedPolynomial
from nkt.jet_calculus import euler_lagrange, total_derivative, total_derivative_multi
from nkt.multiindex import EMPTY, MultiIndex, mi_enumerate
from nkt.noether import (
    LinearJetOperator,
    NoetherIdentityError,
    NoetherReport,
    NonVariationalError,
    ROLE_GAUGE,
    ROLE_NOETHER,
    apply_to_sections,
    check_noether_identity,
    compose,
    derive_gauge_from_noether,
    derive_noether_from_gauge,
    eta,
    gauge_vector_field,
    linearize_in_ghosts,
    noether_residuals,
    trivial_gauge_symmetry,
)
from nkt.errors import SemanticError
from nkt.theory_dsl import Theory, parse_theory
from nkt.randgen import even_fields, graded_fields, random_operator, random_polynomial

Y = even_field("y")
XI = even_ghost("xi")
S = even_field("s")  # same-space slot for operator-algebra tests

MX = MultiIndex((0,))


def op_of(dim, role, table):
    return LinearJetOperator(dim, role, table)


class TestEtaTransform:
    def test_first_order_closed_form(self):
        rng = random.Random(30)
        fields = even_fields(2)
        for _ in range(20):
            u0 = random_polynomial(rng, fields, 1)
            u1 = random_polynomial(rng, fields, 1)
            op = op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): u0, (XI, Y, MX): u1})
            out = eta(op)
            assert out.coefficient(XI, Y, EMPTY) == u0 - total_derivative(u1, 0)
            assert out.coefficient(XI, Y, MX) == -u1

    def test_constant_second_order_operator_is_self_dual(self):
        op = op_of(1, ROLE_GAUGE, {(XI, Y, MultiIndex((0, 0))): GradedPolynomial.one()})
        assert eta(op).coeffs == op.coeffs

    def test_role_flips(self):
        op = op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): GradedPolynomial.one()})
        assert eta(op).role == ROLE_NOETHER
        assert eta(eta(op)).role == ROLE_GAUGE

    def test_involution_on_random_operators(self):
        rng = random.Random(31)
        for dim in (1, 2, 3):
            fields = graded_fields(1, 1)
            for _ in range(12):
                op = random_operator(rng, [XI], [Y], fields, dim, max_order=2)
                assert eta(eta(op)) == op

    def test_adjoint_identity_against_direct_expansion(self):
        # sum (-1)^|Lam| d_Lam(B^Lam z)  ==  sum eta(B)^Lam d_Lam(z)
        rng = random.Random(32)
        for dim in (1, 2):
            fields = graded_fields(1, 1)
            for _ in range(15):
                op = random_operator(rng, [XI], [Y], fields, dim, max_order=2)
                z = random_polynomial(rng, fields, dim, max_order=1)
                lhs = GradedPolynomial.zero()
                rhs = GradedPolynomial.zero()
                dual = eta(op)
                for mi in mi_enumerate(dim, op.max_order()):
                    b = op.coefficient(XI, Y, mi)
                    if not b.is_zero():
                        term = total_derivative_multi(b * z, mi)
                        lhs = lhs - term if mi.order & 1 else lhs + term
                    h = dual.coefficient(XI, Y, mi)
                    if not h.is_zero():
                        rhs = rhs + h * total_derivative_multi(z, mi)
                assert lhs == rhs


class TestComposition:
    def test_hand_expanded_scalar_composition(self):
        y = v(Y)
        inner = op_of(1, ROLE_GAUGE, {(S, S, EMPTY): y, (S, S, MX): v(Y, 0)})
        outer = op_of(1, ROLE_GAUGE, {(S, S, EMPTY): y * y, (S, S, MX): GradedPolynomial.one()})
        comp = compose(outer, inner)
        assert comp.coefficient(S, S, EMPTY) == y * y * y + v(Y, 0)
        assert comp.coefficient(S, S, MX) == y * y * v(Y, 0) + y + v(Y, 0, 0)
        assert comp.coefficient(S, S, MultiIndex((0, 0))) == v(Y, 0)

    def test_hand_expanded_x_dependent_composition(self):
        # inner f = x y f_x, outer g = x^2 g + g_x; outer(inner f) =
        # (x^3 y + y + x y_x) f_x + x y f_xx
        x, y = GradedPolynomial.coordinate(0), v(Y)
        inner = op_of(1, ROLE_GAUGE, {(S, S, MX): x * y})
        outer = op_of(1, ROLE_GAUGE, {(S, S, EMPTY): x * x, (S, S, MX): GradedPolynomial.one()})
        comp = compose(outer, inner)
        assert comp.coeffs == {
            (S, S, MX): x * x * x * y + y + x * v(Y, 0),
            (S, S, MultiIndex((0, 0))): x * y,
        }

    def test_composition_agrees_with_section_application(self):
        rng = random.Random(33)
        fields = even_fields(2)
        for _ in range(10):
            inner = random_operator(rng, [S], [S], fields, 1, max_order=1)
            outer = random_operator(rng, [S], [S], fields, 1, max_order=1)
            comp = compose(outer, inner)
            sec = {S: random_polynomial(rng, fields, 1, max_order=1)}
            direct = apply_to_sections(comp, sec)
            staged = apply_to_sections(outer, apply_to_sections(inner, sec))
            staged = {k: p for k, p in staged.items() if not p.is_zero()}
            assert direct == staged

    def test_eta_reverses_composition_order(self):
        rng = random.Random(34)
        fields = even_fields(1)
        for _ in range(10):
            a = random_operator(rng, [S], [S], fields, 1, max_order=1)
            b = random_operator(rng, [S], [S], fields, 1, max_order=1)
            assert eta(compose(a, b)) == compose(eta(b), eta(a))

    def test_mismatched_spaces_are_rejected(self):
        a = op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): GradedPolynomial.one()})
        with pytest.raises(SemanticError):
            compose(a, a)


class TestGaugeVectorField:
    def test_parameter_jet_multiplies_from_the_left(self):
        op = op_of(1, ROLE_GAUGE, {(XI, Y, MX): v(Y)})
        vf = gauge_vector_field(op)
        assert vf.components[Y] == v(XI, 0) * v(Y)

    def test_linearization_inverts_the_vector_field(self):
        rng = random.Random(77)
        for trial in range(15):
            n_odd = trial % 3
            fields = graded_fields(2, n_odd)
            param = XI if trial % 2 == 0 else odd_ghost("chi")
            op = random_operator(rng, [param], fields[:2], fields, 2, max_order=2)
            assert linearize_in_ghosts(gauge_vector_field(op), 2) == op

    def test_linearization_with_x_dependent_coefficients(self):
        # x0 y chi_x + x0^2 x1 chi c: chi crosses the odd c once in the
        # canonical order x0 x0 x1 c chi
        chi = odd_ghost("chi")
        c = graded_fields(0, 1)[0]
        x0, x1 = GradedPolynomial.coordinate(0), GradedPolynomial.coordinate(1)
        op = op_of(2, ROLE_GAUGE, {
            (chi, Y, MX): x0 * v(Y),
            (chi, Y, EMPTY): x0 * x0 * x1 * v(c),
        })
        vf = gauge_vector_field(op)
        assert vf.components[Y] == v(chi, 0) * x0 * v(Y) + v(chi) * x0 * x0 * x1 * v(c)
        assert linearize_in_ghosts(vf, 2) == op

    def test_odd_ghost_sign_crossing_an_odd_factor(self):
        # component c y_x xi with odd c: pulling xi left crosses one odd jet
        chi = odd_ghost("chi")
        c = graded_fields(0, 1)[0]
        vf = GeneralizedVectorField({Y: v(c) * v(Y, 0) * v(chi)})
        op = linearize_in_ghosts(vf, 1)
        assert op.coefficient(chi, Y, EMPTY) == -(v(c) * v(Y, 0))

    def test_nonlinear_ghost_dependence_is_rejected(self):
        chi = odd_ghost("chi")
        with pytest.raises(SemanticError):
            linearize_in_ghosts(GeneralizedVectorField({Y: v(Y)}), 1)
        with pytest.raises(SemanticError):
            linearize_in_ghosts(
                GeneralizedVectorField({Y: v(XI) * v(chi)}), 1
            )


A0 = even_field("a0")
A1 = even_field("a1")


def _curvature():
    return v(A1, 0) - v(A0, 1)


def _abelian_lagrangian():
    f = _curvature()
    return Density((f * f).scaled(Fraction(1, 2)))


def _abelian_gauge_op():
    one = GradedPolynomial.one()
    return op_of(
        2,
        ROLE_GAUGE,
        {(XI, A0, MultiIndex((0,))): one, (XI, A1, MultiIndex((1,))): one},
    )


class TestNoetherSecondTheorem:
    def test_abelian_gauge_to_noether(self):
        noe, report = derive_noether_from_gauge(_abelian_gauge_op(), _abelian_lagrangian())
        assert noe.role == ROLE_NOETHER
        minus_one = -GradedPolynomial.one()
        assert noe.coefficient(XI, A0, MultiIndex((0,))) == minus_one
        assert noe.coefficient(XI, A1, MultiIndex((1,))) == minus_one
        assert report.holds
        assert report.residuals[XI].is_zero()

    def test_abelian_noether_to_gauge_roundtrip(self):
        noe, _ = derive_noether_from_gauge(_abelian_gauge_op(), _abelian_lagrangian())
        back, report = derive_gauge_from_noether(noe, _abelian_lagrangian())
        assert back == _abelian_gauge_op()
        assert report.holds
        assert report.notes == ()

    def test_non_symmetry_is_refused_with_witnesses(self):
        op = op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): GradedPolynomial.one()})
        lagr = Density((v(Y) * v(Y)).scaled(Fraction(1, 2)))
        with pytest.raises(NonVariationalError) as err:
            derive_noether_from_gauge(op, lagr)
        assert not err.value.report.trivial
        assert err.value.report.residuals

    def test_a_non_symmetry_builds_no_field_equations(self, monkeypatch):
        # the verdict is decided on theta(L); the variational derivatives of
        # L itself serve only the identity of a symmetry that passes
        op = op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): GradedPolynomial.one()})
        lagr = Density((v(Y) * v(Y)).scaled(Fraction(1, 2)))
        on_lagrangian = []

        def spy(density, variables=None):
            if density is lagr or density is lagr.expr:
                on_lagrangian.append(variables)
            return euler_lagrange(density, variables)

        for module in (derivations, jet_calculus, noether):
            monkeypatch.setattr(module, "euler_lagrange", spy)
        with pytest.raises(NonVariationalError):
            derive_noether_from_gauge(op, lagr)
        assert on_lagrangian == []

    def test_identity_check_requires_noether_role(self):
        with pytest.raises(SemanticError):
            check_noether_identity(_abelian_gauge_op(), _abelian_lagrangian())

    def test_identity_check_flags_violations(self):
        bad = op_of(1, ROLE_NOETHER, {(XI, Y, EMPTY): GradedPolynomial.one()})
        lagr = Density((v(Y) * v(Y)).scaled(Fraction(1, 2)))
        report = check_noether_identity(bad, lagr)
        assert not report.holds
        assert report.residuals[XI] == v(Y)

    def test_an_operator_off_the_identity_is_refused_with_its_report(self):
        bad = op_of(1, ROLE_NOETHER, {(XI, Y, EMPTY): GradedPolynomial.one()})
        lagr = Density((v(Y) * v(Y)).scaled(Fraction(1, 2)))
        with pytest.raises(NoetherIdentityError) as err:
            derive_gauge_from_noether(bad, lagr)
        assert isinstance(err.value, SemanticError)
        assert str(err.value) == (
            "operator does not satisfy the Noether identity; nothing to derive"
        )
        assert err.value.report == check_noether_identity(bad, lagr)
        assert err.value.report.residuals == {XI: v(Y)}

    def test_the_inverse_construction_requires_noether_role(self):
        with pytest.raises(SemanticError) as err:
            derive_gauge_from_noether(_abelian_gauge_op(), _abelian_lagrangian())
        assert not isinstance(err.value, NoetherIdentityError)
        assert str(err.value) == "check_noether_identity expects a noether-role operator"


def _bundled_gauge_symmetry(name, op):
    theory_dir = Path(__file__).resolve().parent.parent / "theories"
    theory = parse_theory((theory_dir / f"{name}.nkt").read_text())
    return theory.operators[op], theory.lagrangian


GAUGE_SYMMETRIES = {
    "abelian": lambda: (_abelian_gauge_op(), _abelian_lagrangian()),
    "two_form": lambda: _bundled_gauge_symmetry("two_form", "gauge_sym"),
    "on_shell_pair": lambda: _bundled_gauge_symmetry("on_shell_pair", "rot"),
}


@pytest.mark.parametrize("case", sorted(GAUGE_SYMMETRIES))
def test_derivations_compute_the_lagrangian_variational_derivatives_once(
    case, monkeypatch
):
    op, lagr = GAUGE_SYMMETRIES[case]()
    # the public steps each derivation is made of, run separately
    noe_expected = eta(op)
    report_expected = NoetherReport(
        noether_residuals(noe_expected, lagr),
        check_variational(gauge_vector_field(op), lagr),
    )
    back_expected = eta(noe_expected)
    back_report_expected = NoetherReport(
        check_noether_identity(noe_expected, lagr).residuals,
        check_variational(gauge_vector_field(back_expected), lagr),
    )

    on_lagrangian = []

    def spy(density, variables=None):
        if density is lagr:
            on_lagrangian.append(variables)
        return euler_lagrange(density, variables)

    for module in (derivations, jet_calculus, noether):
        monkeypatch.setattr(module, "euler_lagrange", spy)
    noe, report = derive_noether_from_gauge(op, lagr)
    assert len(on_lagrangian) == 1
    assert noe == noe_expected and report == report_expected
    on_lagrangian.clear()
    back, back_report = derive_gauge_from_noether(noe, lagr)
    assert len(on_lagrangian) == 1
    assert back == back_expected and back_report == back_report_expected


def test_the_inverse_construction_builds_the_field_equations_once(monkeypatch):
    # ym_su2's covariant derivative, read as its Noether operator
    gauge, lagr = _bundled_gauge_symmetry("ym_su2", "gauge_sym")
    noe = eta(gauge)
    calls = []

    def counted(density, variables=None):
        calls.append(variables)
        return euler_lagrange(density, variables)

    monkeypatch.setattr(noether, "euler_lagrange", counted)
    back, report = derive_gauge_from_noether(noe, lagr)
    assert calls == [noe.targets()]
    assert back == gauge and report.holds and report.notes == ()


class TestTrivialSymmetries:
    def test_antisymmetric_table_gives_exact_divergence(self):
        lagr = Density((v(Y, 0) * v(Y, 0)).scaled(Fraction(1, 2)))
        one = GradedPolynomial.one()
        slot_a = (Y, EMPTY)
        slot_b = (Y, MX)
        table = {(XI, slot_a, slot_b): one, (XI, slot_b, slot_a): -one}
        op = trivial_gauge_symmetry(table, lagr, 1)
        assert op.role == ROLE_GAUGE
        contraction = contract_with_EL(gauge_vector_field(op), lagr)
        el_sq = v(Y, 0, 0) * v(Y, 0, 0)
        assert contraction == total_derivative(v(XI) * el_sq, 0)

    def test_symmetric_table_is_rejected(self):
        one = GradedPolynomial.one()
        slot_a = (Y, EMPTY)
        slot_b = (Y, MX)
        table = {(XI, slot_a, slot_b): one, (XI, slot_b, slot_a): one}
        lagr = Density((v(Y, 0) * v(Y, 0)).scaled(Fraction(1, 2)))
        with pytest.raises(SemanticError):
            trivial_gauge_symmetry(table, lagr, 1)


class TestOperatorHousekeeping:
    def test_coefficients_must_be_field_polynomials(self):
        with pytest.raises(SemanticError):
            op_of(1, ROLE_GAUGE, {(XI, Y, EMPTY): v(XI)})

    def test_zero_coefficients_are_pruned(self):
        op = op_of(
            1,
            ROLE_GAUGE,
            {(XI, Y, EMPTY): v(Y) - v(Y), (XI, Y, MX): GradedPolynomial.one()},
        )
        assert (XI, Y, EMPTY) not in op.coeffs
        assert op.max_order() == 1

    def test_json_round_structure(self):
        theory = Theory("abelian", 2, {})
        report = cli._operator_report(
            "eta", theory, "shift", "shift", _abelian_gauge_op(), []
        )
        assert report.residuals == [("xi|a0|[0]", "1"), ("xi|a1|[1]", "1")]
        assert report.body == [
            "operator shift role gauge {",
            "  (xi, a0, [0]) : 1",
            "  (xi, a1, [1]) : 1",
            "}",
        ]
