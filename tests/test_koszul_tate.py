"""Antifield boundaries, nilpotency, and the reducibility tower."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import even_field, odd_ghost, v

from nkt import jet_calculus, koszul_tate, noether
from nkt.errors import SemanticError
from nkt.graded_poly import (
    Density,
    GradedPolynomial,
    Kind,
    Parity,
    VariableId,
    antifield_of,
)
from nkt.jet_calculus import euler_lagrange, total_derivative
from nkt.koszul_tate import (
    ReducibilityReport,
    ReductionCertificate,
    certificate_expansion,
    check_reducibility_chain,
    check_weakly_zero,
    extend_with_operator,
    kt_apply,
    kt_context,
    kt_nilpotency_residuals,
    operator_boundary,
)
from nkt.multiindex import EMPTY, MultiIndex
from nkt.noether import (
    ROLE_GAUGE,
    ROLE_NOETHER,
    ROLE_STAGE,
    LinearJetOperator,
    eta,
    noether_residuals,
)
from nkt.randgen import random_operator, random_polynomial
from nkt.theory_dsl import parse_theory, resolve_component

Y = even_field("y")
SY = antifield_of(Y)
C = odd_ghost("c")


def half(p):
    return p.scaled(Fraction(1, 2))


class TestBoundary:
    def test_antifield_bounds_onto_field_equation(self):
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        assert ctx.boundaries == {SY: v(Y)}
        assert kt_apply(ctx, v(SY)) == v(Y)
        assert kt_apply(ctx, v(SY, 0)) == v(Y, 0)

    def test_right_derivation_sign_on_ghost_antifield_product(self):
        # boundary of s~_x c is -y_x c: the ghost crosses leftward first
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        p = v(SY, 0) * v(C)
        assert kt_apply(ctx, p) == -(v(Y, 0) * v(C))

    def test_squared_boundary_vanishes_identically(self):
        rng = random.Random(40)
        lagr = half(v(Y, 0) * v(Y, 0)) + v(Y) * v(Y) * v(Y)
        ctx = kt_context(lagr, 1, [Y])
        pool_fields = [Y, SY, C]
        for _ in range(40):
            p = random_polynomial(rng, pool_fields, 1, max_order=1)
            assert kt_apply(ctx, kt_apply(ctx, p)).is_zero()

    def test_nilpotency_residuals_empty_at_antifield_level(self):
        ctx = kt_context(half(v(Y, 0) * v(Y, 0)), 1, [Y])
        assert kt_nilpotency_residuals(ctx) == {}


A0 = even_field("a0")
A1 = even_field("a1")
CBAR = antifield_of(C)


def _abelian_lagrangian():
    f = v(A1, 0) - v(A0, 1)
    return Density(half(f * f))


def _abelian_noether_op():
    minus = -GradedPolynomial.one()
    return LinearJetOperator(
        2,
        ROLE_NOETHER,
        {(C, A0, MultiIndex((0,))): minus, (C, A1, MultiIndex((1,))): minus},
    )


class TestAntighostExtension:
    def test_boundary_of_antighost_is_dual_density(self):
        op = _abelian_noether_op()
        ctx = kt_context(_abelian_lagrangian(), 2, [A0, A1])
        ctx = extend_with_operator(ctx, op)
        expected = -v(antifield_of(A0), 0) - v(antifield_of(A1), 1)
        assert ctx.boundaries[CBAR] == expected
        assert operator_boundary(op, C) == expected

    def test_identity_theory_has_nilpotent_extension(self):
        ctx = kt_context(_abelian_lagrangian(), 2, [A0, A1])
        ctx = extend_with_operator(ctx, _abelian_noether_op())
        assert kt_nilpotency_residuals(ctx) == {}

    def test_extension_nilpotency_equals_identity_residual(self):
        rng = random.Random(41)
        fields = [Y, even_field("z")]
        lagr = random_polynomial(rng, fields, 1, parity=Parity.EVEN)
        for _ in range(15):
            op = random_operator(
                rng, [C], fields, fields, 1, max_order=1, role=ROLE_NOETHER
            )
            ctx = extend_with_operator(kt_context(lagr, 1, fields), op)
            second = kt_apply(ctx, ctx.boundaries[CBAR])
            assert second == noether_residuals(op, lagr)[C]

    def test_gauge_reading_cannot_extend(self):
        op = LinearJetOperator(
            1, ROLE_GAUGE, {(C, Y, EMPTY): GradedPolynomial.one()}
        )
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        with pytest.raises(SemanticError):
            extend_with_operator(ctx, op)

    def test_missing_target_boundary_is_caught(self):
        op = _abelian_noether_op()
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        with pytest.raises(SemanticError):
            extend_with_operator(ctx, op)

    def test_even_parameter_breaks_parity_and_is_caught(self):
        xi = VariableId(Kind.GHOST, "xi", (), Parity.EVEN)
        op = LinearJetOperator(
            1, ROLE_NOETHER, {(xi, Y, EMPTY): GradedPolynomial.one()}
        )
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        with pytest.raises(SemanticError):
            extend_with_operator(ctx, op)


B01 = even_field("b01")
B02 = even_field("b02")
B12 = even_field("b12")
C0, C1, C2 = odd_ghost("c0"), odd_ghost("c1"), odd_ghost("c2")
E_STAGE = VariableId(Kind.GHOST, "e", (), Parity.EVEN, stage=0)


def _two_form_lagrangian():
    h = v(B12, 0) - v(B02, 1) + v(B01, 2)
    return Density(half(h * h))


def _two_form_gauge_op():
    one = GradedPolynomial.one()
    return LinearJetOperator(
        3,
        ROLE_GAUGE,
        {
            (C1, B01, MultiIndex((0,))): one,
            (C0, B01, MultiIndex((1,))): -one,
            (C2, B02, MultiIndex((0,))): one,
            (C0, B02, MultiIndex((2,))): -one,
            (C2, B12, MultiIndex((1,))): one,
            (C1, B12, MultiIndex((2,))): -one,
        },
    )


def _two_form_stage_op(sign: int = 1):
    one = GradedPolynomial.one().scaled(sign)
    return LinearJetOperator(
        3,
        ROLE_STAGE,
        {
            (E_STAGE, C0, MultiIndex((0,))): one,
            (E_STAGE, C1, MultiIndex((1,))): GradedPolynomial.one(),
            (E_STAGE, C2, MultiIndex((2,))): GradedPolynomial.one(),
        },
        stage=0,
    )


class TestReducibilityChain:
    def test_two_form_tower_closes_exactly(self):
        report = check_reducibility_chain(
            _two_form_lagrangian(), _two_form_gauge_op(), [_two_form_stage_op()]
        )
        assert isinstance(report, ReducibilityReport)
        assert report.stages == 0
        assert report.holds
        assert all(r.is_zero() for r in report.identity_residuals.values())
        assert report.stage_results[E_STAGE].ok
        assert report.stage_results[E_STAGE].residual.is_zero()
        assert report.assumptions

    def test_wrong_sign_stage_operator_fails_with_residual(self):
        report = check_reducibility_chain(
            _two_form_lagrangian(), _two_form_gauge_op(), [_two_form_stage_op(-1)]
        )
        assert not report.holds
        res = report.stage_results[E_STAGE].residual
        expected = (
            v(antifield_of(B01), 0, 1) + v(antifield_of(B02), 0, 2)
        ).scaled(2)
        assert res == expected

    def test_irreducible_case_reports_stage_minus_one(self):
        lagr = _abelian_lagrangian()
        gauge = eta(_abelian_noether_op())
        report = check_reducibility_chain(lagr, gauge, [])
        assert report.stages == -1
        assert report.holds
        assert report.stage_results == {}

    def test_nonconsecutive_stages_are_rejected(self):
        bad = LinearJetOperator(
            3,
            ROLE_STAGE,
            {(E_STAGE, C0, EMPTY): GradedPolynomial.one()},
            stage=1,
        )
        with pytest.raises(SemanticError):
            check_reducibility_chain(
                _two_form_lagrangian(), _two_form_gauge_op(), [bad]
            )

    def test_mismatched_stage_targets_are_rejected(self):
        bad = LinearJetOperator(
            3,
            ROLE_STAGE,
            {(E_STAGE, B01, EMPTY): GradedPolynomial.one()},
            stage=0,
        )
        with pytest.raises(SemanticError):
            check_reducibility_chain(
                _two_form_lagrangian(), _two_form_gauge_op(), [bad]
            )


Y1 = even_field("y1")
Y2 = even_field("y2")
XI = odd_ghost("xi")
E2 = VariableId(Kind.GHOST, "e2", (), Parity.EVEN, stage=0)


def _on_shell_reducible():
    lagr = Density(half(v(Y1) * v(Y1) + v(Y2) * v(Y2)))
    gauge = LinearJetOperator(
        1, ROLE_GAUGE, {(XI, Y1, EMPTY): v(Y2), (XI, Y2, EMPTY): -v(Y1)}
    )
    stage = LinearJetOperator(
        1, ROLE_STAGE, {(E2, XI, EMPTY): v(Y1)}, stage=0
    )
    return lagr, gauge, stage


class TestBoundaryWitnesses:
    def test_on_shell_composition_needs_and_accepts_witness(self):
        lagr, gauge, stage = _on_shell_reducible()
        witness = v(Y1) * v(antifield_of(Y1)) * v(antifield_of(Y2))
        cert = ReductionCertificate(witness=witness)
        report = check_reducibility_chain(lagr, gauge, [stage], {E2: cert})
        assert report.holds
        assert report.stage_results[E2].ok
        assert any("certificate" in n for n in report.notes)

    def test_obstruction_value_without_witness(self):
        lagr, gauge, stage = _on_shell_reducible()
        report = check_reducibility_chain(lagr, gauge, [stage])
        assert not report.holds
        res = report.stage_results[E2].residual
        s1, s2 = v(antifield_of(Y1)), v(antifield_of(Y2))
        assert res == v(Y1) * v(Y2) * s1 - v(Y1) * v(Y1) * s2

    def test_wrong_witness_is_reported(self):
        lagr, gauge, stage = _on_shell_reducible()
        bad = ReductionCertificate(witness=v(antifield_of(Y1)) * v(antifield_of(Y2)))
        report = check_reducibility_chain(lagr, gauge, [stage], {E2: bad})
        assert not report.stage_results[E2].ok
        assert any("does not bound" in n for n in report.stage_results[E2].notes)

    def test_weak_zero_reports(self):
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        zero = GradedPolynomial.zero()
        assert check_weakly_zero(ctx, zero).ok
        probe = v(Y) * v(SY)
        no_cert = check_weakly_zero(ctx, probe)
        assert not no_cert.ok and probe == no_cert.residual


class TestEquationCoefficientCertificates:
    def test_equation_itself_is_certified_by_unit_coefficient(self):
        lagr = half(v(Y) * v(Y))
        ctx = kt_context(lagr, 1, [Y])
        e_y = euler_lagrange(lagr)[Y]
        cert = ReductionCertificate(m_coeffs={(Y, EMPTY): GradedPolynomial.one()})
        assert check_weakly_zero(ctx, e_y, cert).ok

    def test_derivative_combination_matches_coefficients(self):
        lagr = half(v(Y, 0) * v(Y, 0))
        ctx = kt_context(lagr, 1, [Y])
        e_y = euler_lagrange(lagr)[Y]
        residual = v(Y, 0) * e_y + v(Y) * total_derivative(e_y, 0)
        cert = ReductionCertificate(
            m_coeffs={(Y, EMPTY): v(Y, 0), (Y, MultiIndex((0,))): v(Y)}
        )
        report = check_weakly_zero(ctx, residual, cert)
        assert report.ok
        assert any("certificate" in n for n in report.notes)

    def test_zero_certificate_fails_on_nonzero_residual(self):
        lagr = half(v(Y, 0) * v(Y, 0))
        ctx = kt_context(lagr, 1, [Y])
        report = check_weakly_zero(ctx, v(Y), ReductionCertificate())
        assert not report.ok
        assert report.residual == v(Y)

    def test_coefficients_and_witness_add(self):
        lagr = half(v(Y) * v(Y))
        ctx = kt_context(lagr, 1, [Y])
        e_y = euler_lagrange(lagr)[Y]
        combined = v(Y) * e_y + kt_apply(ctx, v(Y) * v(SY))
        cert = ReductionCertificate(
            m_coeffs={(Y, EMPTY): v(Y)}, witness=v(Y) * v(SY)
        )
        assert check_weakly_zero(ctx, combined, cert).ok

    def test_unknown_equation_reference_is_rejected(self):
        ctx = kt_context(half(v(Y) * v(Y)), 1, [Y])
        stray = even_field("z")
        cert = ReductionCertificate(m_coeffs={(stray, EMPTY): GradedPolynomial.one()})
        with pytest.raises(SemanticError):
            certificate_expansion(ctx, cert)


# --------------------------------------------------------------------------
# The Noether identity read off the tower, on the bundled theories.

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
TOWERS = ("two_form", "on_shell_pair", "ym_su2", "ym_su2_perturbed")


def _tower(case, tmp_path):
    """The lagrangian, gauge operator, stage operators and certificates of a
    bundled theory; the perturbed ym_su2 doubles the structure constant in
    its gauge operator only, which then breaks the Noether identity."""
    name = case.removesuffix("_perturbed")
    text = (THEORY_DIR / f"{name}.nkt").read_text()
    if case != name:
        coupling = "[]) : sum(p,1..3, eps[r,p,q]*a[mu,p])"
        assert coupling in text
        path = tmp_path / f"{case}.nkt"
        path.write_text(text.replace(coupling, coupling.replace("eps", "2*eps")))
        text = path.read_text()
    theory = parse_theory(text)
    ops = theory.operators.values()
    (gauge,) = [op for op in ops if op.role == ROLE_GAUGE]
    stages = [op for op in ops if op.role == ROLE_STAGE]
    certificates = {
        resolve_component(theory, label): cert
        for label, cert in theory.certificates.items()
    }
    return theory.lagrangian, gauge, stages, certificates


@pytest.mark.parametrize("case", TOWERS)
def test_identity_read_off_the_tower_equals_the_noether_residuals(case, tmp_path):
    lagr, gauge, stages, certificates = _tower(case, tmp_path)
    report = check_reducibility_chain(lagr, gauge, stages, certificates)
    assert report.identity_residuals == noether_residuals(eta(gauge), lagr)
    broken = any(not r.is_zero() for r in report.identity_residuals.values())
    assert broken == (case == "ym_su2_perturbed")
    assert report.holds == (not broken)


@pytest.mark.parametrize("case", TOWERS)
def test_the_tower_builds_the_field_equations_once(case, tmp_path, monkeypatch):
    lagr, gauge, stages, certificates = _tower(case, tmp_path)
    calls = []

    def counted(density, variables=None):
        calls.append(variables)
        return euler_lagrange(density, variables)

    for module in (jet_calculus, noether, koszul_tate):
        monkeypatch.setattr(module, "euler_lagrange", counted)
    check_reducibility_chain(lagr, gauge, stages, certificates)
    assert calls == [gauge.targets()]
