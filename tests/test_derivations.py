"""Prolonged vector fields, variational symmetry checks, nilpotency."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import even_field, even_ghost, odd_field, odd_ghost, v

from nkt import config
from nkt.derivations import (
    GeneralizedVectorField,
    check_nilpotent,
    check_variational,
    contract_with_EL,
    first_variational_residual,
    prolong_apply,
)
from nkt.errors import JetOrderError
from nkt.graded_poly import Density, GradedPolynomial, JetVariable, Parity
from nkt.jet_calculus import (
    FIELD_INDEPENDENT_NOTE,
    TRIVIAL_TOPOLOGY_NOTE,
    euler_lagrange,
    is_variationally_trivial,
    total_derivative,
)
from nkt.multiindex import mi_enumerate
from nkt.noether import NonVariationalError, derive_noether_from_gauge, gauge_vector_field
from nkt.randgen import graded_fields, random_operator, random_polynomial, random_scalar
from nkt.theory_dsl import parse_theory


Y = even_field("y")
C = odd_field("c")


class TestProlongation:
    def test_prolonged_field_shift_on_free_lagrangian(self):
        # upsilon^y = c, L = (1/2) y_x^2: theta(L) = c_x y_x
        vf = GeneralizedVectorField({Y: v(C)})
        lagr = v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2))
        assert prolong_apply(vf, lagr) == v(C, 0) * v(Y, 0)

    def test_prolongation_hits_all_jet_levels(self):
        # upsilon^y = y: theta(y y_xx) = y y_xx + y (y_xx) = 2 y y_xx
        vf = GeneralizedVectorField({Y: v(Y)})
        p = v(Y) * v(Y, 0, 0)
        assert prolong_apply(vf, p) == p.scaled(2)

    def test_prolongation_is_graded_derivation(self):
        rng = random.Random(20)
        fields = graded_fields(1, 1)
        comps = {
            fields[0]: random_polynomial(rng, fields, 1, parity=Parity.EVEN),
            fields[1]: random_polynomial(rng, fields, 1, parity=Parity.ODD),
        }
        vf = GeneralizedVectorField(comps)  # even vector field
        for _ in range(40):
            a = random_polynomial(rng, fields, 1)
            b = random_polynomial(rng, fields, 1)
            lhs = prolong_apply(vf, a * b)
            rhs = prolong_apply(vf, a) * b + a * prolong_apply(vf, b)
            assert lhs == rhs

    def test_prolongation_commutes_with_total_derivative(self):
        rng = random.Random(21)
        fields = graded_fields(2, 1)
        comps = {
            f: random_polynomial(rng, fields, 2, max_order=1) for f in fields
        }
        vf = GeneralizedVectorField(comps)
        for _ in range(25):
            p = random_polynomial(rng, fields, 2)
            for d in (0, 1):
                assert prolong_apply(vf, total_derivative(p, d)) == total_derivative(
                    prolong_apply(vf, p), d
                )

    def test_relative_parity_detection(self):
        assert GeneralizedVectorField({Y: v(C)}).relative_parity() is Parity.ODD
        assert GeneralizedVectorField({Y: v(Y)}).relative_parity() is Parity.EVEN
        mixed = GeneralizedVectorField({Y: v(C) + v(Y)})
        assert mixed.relative_parity() is None


class TestVariationalContraction:
    def test_contraction_with_free_field_equations(self):
        # upsilon^y = 1 against L = (1/2) y_x^2: 1 * E_y = -y_xx
        vf = GeneralizedVectorField({Y: GradedPolynomial.one()})
        lagr = v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2))
        assert contract_with_EL(vf, lagr) == -v(Y, 0, 0)

    def test_shift_symmetry_is_variational(self):
        vf = GeneralizedVectorField({Y: GradedPolynomial.one()})
        lagr = v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2))
        assert check_variational(vf, lagr).trivial

    def test_scaling_of_mass_term_is_not_variational(self):
        # upsilon^y = y, L = (1/2) y^2: upsilon . E = y^2, EL residual 2y
        vf = GeneralizedVectorField({Y: v(Y)})
        lagr = v(Y) * v(Y).scaled(Fraction(1, 2))
        report = check_variational(vf, lagr)
        assert not report.trivial
        assert report.residuals == {Y: v(Y).scaled(2)}


class TestFirstVariationalFormula:
    def test_graded_shift_example(self):
        # upsilon^c = y on L = c c_x: theta(L) - upsilon^c E_c = -d_x(y c)
        vf = GeneralizedVectorField({C: v(Y)})
        lagr = v(C) * v(C, 0)
        report = first_variational_residual(vf, lagr)
        assert report.residual == -total_derivative(v(Y) * v(C), 0)
        assert report.holds

    def test_bare_polynomial_gives_the_density_report(self):
        vf = GeneralizedVectorField({C: v(Y)})
        p = v(C) * v(C, 0)
        report = first_variational_residual(vf, p)
        assert report == first_variational_residual(vf, Density(p))
        assert not report.residual.is_zero()

    def test_random_even_vector_fields(self):
        rng = random.Random(22)
        fields = graded_fields(2, 1)
        for _ in range(30):
            comps = {
                fields[0]: random_polynomial(rng, fields, 1, parity=Parity.EVEN),
                fields[1]: random_polynomial(rng, fields, 1, parity=Parity.EVEN),
                fields[2]: random_polynomial(rng, fields, 1, parity=Parity.ODD),
            }
            vf = GeneralizedVectorField(comps)
            lagr = random_polynomial(rng, fields, 1, parity=Parity.EVEN)
            assert first_variational_residual(vf, lagr).holds


class TestNilpotency:
    def test_spec_style_failing_candidate(self):
        # upsilon^y = c1 y + c2 squares to -c1 c2 on y
        c1, c2 = odd_ghost("c1"), odd_ghost("c2")
        vf = GeneralizedVectorField({Y: v(c1) * v(Y) + v(c2)})
        report = check_nilpotent(vf)
        assert report.odd
        assert not report.nilpotent
        assert report.residuals == {Y: -(v(c1) * v(c2))}

    def test_abelian_brst_is_nilpotent(self):
        # upsilon^y = c_x, upsilon^c = 0
        c = odd_ghost("c")
        vf = GeneralizedVectorField({Y: v(c, 0)})
        report = check_nilpotent(vf)
        assert report.odd
        assert report.nilpotent
        assert report.residuals == {}

    def test_even_candidate_is_rejected_not_expanded(self):
        vf = GeneralizedVectorField({Y: v(Y)})
        report = check_nilpotent(vf)
        assert not report.odd
        assert not report.nilpotent
        assert any("odd derivation" in note for note in report.notes)


class TestLieDerivative:
    def test_density_transport_matches_prolongation(self):
        rng = random.Random(23)
        fields = graded_fields(2, 0)
        comps = {f: random_polynomial(rng, fields, 2, max_order=1) for f in fields}
        vf = GeneralizedVectorField(comps)
        p = random_polynomial(rng, fields, 2)
        # R + sum Q^A E_A, R read from a Density, is theta(L) itself
        report = first_variational_residual(vf, Density(p))
        assert report.residual + contract_with_EL(vf, p) == prolong_apply(vf, p)


SCALE_THEORY = """
theory scale
dim 1
field y parity even
lagrangian 1/2*d(y;x)^2 + x*y
derivation scale {
  y : y
}
"""


class TestTheLagrangianIsAPolynomial:
    def test_results_are_polynomials_and_a_density_is_still_accepted(self):
        theory = parse_theory(SCALE_THEORY)
        lagr, vf = theory.lagrangian, theory.derivations["scale"]
        x = GradedPolynomial.coordinate(0)
        assert type(lagr) is GradedPolynomial
        assert lagr == (v(Y, 0) * v(Y, 0)).scaled(Fraction(1, 2)) + x * v(Y)
        # theta(L) = y_x^2 + x y, and y E_y = y (x - y_xx)
        lie = prolong_apply(vf, lagr)
        assert type(lie) is GradedPolynomial
        assert lie == v(Y, 0) * v(Y, 0) + x * v(Y)
        contraction = contract_with_EL(vf, lagr)
        assert type(contraction) is GradedPolynomial
        assert contraction == v(Y) * (x - v(Y, 0, 0))
        assert euler_lagrange(lagr)[Y] == x - v(Y, 0, 0)
        report = first_variational_residual(vf, lagr)
        assert report.residual == v(Y, 0) * v(Y, 0) + v(Y) * v(Y, 0, 0)
        assert report.holds
        # first_variational_residual alone still unwraps a Density
        bundled = [parse_theory(f.read_text()) for f in sorted(THEORIES.glob("*.nkt"))]
        for t in [theory, *bundled]:
            for vf in t.derivations.values():
                report = first_variational_residual(vf, t.lagrangian)
                assert first_variational_residual(vf, Density(t.lagrangian)) == report


# ---------------------------------------------------------------------------
# check_variational decides on theta(L); its definition is the contraction.

THEORIES = Path(__file__).resolve().parents[1] / "theories"
# the brst derivation and gauge_sym operator of ym_su2 with their coupling
# doubled, so that neither matches the Lagrangian's
YM_UNMATCHED_EDITS = (
    ("d(C[r];mu) + sum(p,1..3,", "d(C[r];mu) + 2 * sum(p,1..3,"),
    (": sum(p,1..3, eps[r,p,q]*a[mu,p])", ": 2 * sum(p,1..3, eps[r,p,q]*a[mu,p])"),
)
NOTE_THEORY = """
theory note
dim 1
field y parity even
lagrangian x*d(y;x)
derivation shift {
  y : 1
}
"""


def definitional_report(vf, lagr):
    """Variationality by definition: the contraction's variational derivatives."""
    return is_variationally_trivial(contract_with_EL(vf, lagr))


def assert_matches_definition(vf, lagr):
    old = definitional_report(vf, lagr)
    new = check_variational(vf, lagr)
    assert new.trivial == old.trivial
    assert list(new.residuals.items()) == list(old.residuals.items())
    assert new.assumptions == old.assumptions
    return old


def ym_su2(coupled: bool):
    text = (THEORIES / "ym_su2.nkt").read_text()
    if not coupled:
        for anchor, edited in YM_UNMATCHED_EDITS:
            assert text.count(anchor) == 1
            text = text.replace(anchor, edited)
    return parse_theory(text)


class TestVariationalityMatchesTheContraction:
    @pytest.mark.parametrize("relative", [Parity.EVEN, Parity.ODD, None])
    def test_random_fields(self, relative):
        rng = random.Random(40 + (2 if relative is None else int(relative)))
        fields = graded_fields(2, 1)
        failures = 0
        for _ in range(60):
            dim = rng.randint(1, 2)
            lagr = random_polynomial(
                rng, fields, dim, max_order=rng.randint(1, 2), parity=Parity.EVEN,
                scalar_coeffs=rng.random() < 0.3,
            )
            comps = {}
            for f in fields:
                parity = None if relative is None else f.parity + relative
                comps[f] = random_polynomial(
                    rng, fields, dim, max_order=1, max_factors=2,
                    parity=parity, scalar_coeffs=rng.random() < 0.3,
                )
            vf = GeneralizedVectorField(comps)
            failures += not assert_matches_definition(vf, lagr).trivial
        assert 0 < failures < 60  # both verdicts are met

    def test_fields_of_divergences_and_jet_free_components(self):
        # L = s(x) y_Lam + d_i P: theta(L) is a divergence plus a function
        # of x alone, and jet-free components make the contraction jet free
        rng = random.Random(43)
        fields = graded_fields(2, 0)
        notes = 0
        for _ in range(60):
            dim = rng.randint(1, 2)
            p = random_polynomial(rng, fields, dim, max_order=1)
            lam = rng.choice(mi_enumerate(dim, 1))
            lagr = total_derivative(p, rng.randrange(dim)) + random_scalar(
                rng, dim
            ) * GradedPolynomial.variable(JetVariable(fields[0], lam))
            comps = {fields[0]: random_scalar(rng, dim)}
            if rng.random() < 0.5:
                comps[fields[1]] = random_scalar(rng, dim)
            report = assert_matches_definition(GeneralizedVectorField(comps), lagr)
            assert report.trivial
            notes += FIELD_INDEPENDENT_NOTE in report.assumptions
        assert 0 < notes < 60

    def test_gauge_vector_fields_of_random_operators(self):
        rng = random.Random(44)
        fields = graded_fields(2, 1)
        ghosts = [odd_ghost("g0"), even_ghost("g1")]
        for _ in range(40):
            dim = rng.randint(1, 2)
            op = random_operator(rng, ghosts, fields, fields, dim, max_order=1)
            lagr = random_polynomial(rng, fields, dim, max_order=1, parity=Parity.EVEN)
            assert_matches_definition(gauge_vector_field(op), lagr)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_ym_su2_brst(self, coupled):
        theory = ym_su2(coupled)
        report = assert_matches_definition(theory.derivations["brst"], theory.lagrangian)
        assert report.trivial == coupled

    @pytest.mark.parametrize("cubic, variational", [("+ 1/3", True), ("- 1/3", False)])
    def test_cs_su2_brst_holds_up_to_a_divergence(self, cubic, variational):
        # theta(L) is a nonzero divergence; with the cubic term's sign
        # flipped it is no divergence at all
        text = (THEORIES / "cs_su2.nkt").read_text()
        assert text.count("+ 1/3 * sum(p") == 1
        theory = parse_theory(text.replace("+ 1/3 * sum(p", f"{cubic} * sum(p"))
        vf, lagr = theory.derivations["brst"], theory.lagrangian
        assert not prolong_apply(vf, lagr).is_zero()
        report = assert_matches_definition(vf, lagr)
        assert report.trivial == variational

    @pytest.mark.parametrize("coupled", [True, False])
    def test_ym_su2_noether_paths(self, coupled):
        theory = ym_su2(coupled)
        op, lagr = theory.operators["gauge_sym"], theory.lagrangian
        old = definitional_report(gauge_vector_field(op), lagr)
        if coupled:
            _, report = derive_noether_from_gauge(op, lagr)
        else:
            with pytest.raises(NonVariationalError) as exc:
                derive_noether_from_gauge(op, lagr)
            report = exc.value
        assert report.variational == old if coupled else report.report == old

    def test_the_note_describes_the_contraction_not_theta(self):
        # theta(L) = 0, but the contraction 1 * E_y = -1 depends on x alone
        theory = parse_theory(NOTE_THEORY)
        vf, lagr = theory.derivations["shift"], theory.lagrangian
        assert prolong_apply(vf, lagr).is_zero()
        assert contract_with_EL(vf, lagr) == -GradedPolynomial.one()
        report = assert_matches_definition(vf, lagr)
        assert report.assumptions == (TRIVIAL_TOPOLOGY_NOTE, FIELD_INDEPENDENT_NOTE)


class TestVariationalityWithinTheJetOrderBound:
    def test_theta_stays_below_the_orders_of_the_contraction(self, monkeypatch):
        # ym_su2's brst: the contraction's variational derivatives reach jet
        # order 3, theta(L) = 0 needs none
        theory = parse_theory((THEORIES / "ym_su2.nkt").read_text())
        vf, lagr = theory.derivations["brst"], theory.lagrangian
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
        config.reload()
        with pytest.raises(JetOrderError, match="jet order 3 exceeds the bound 2"):
            definitional_report(vf, lagr)
        assert check_variational(vf, lagr).trivial

    def test_a_component_above_the_lagrangians_order_falls_back(self):
        # Q^y = y_xxxx^2 on L = y_x^2/2: theta(L) = 2 y_x y_xxxx y_xxxxx,
        # whose variational derivative passes through order 9 on the way
        vf = GeneralizedVectorField({Y: v(Y, 0, 0, 0, 0) * v(Y, 0, 0, 0, 0)})
        lagr = v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2))
        with pytest.raises(JetOrderError, match="jet order 9 exceeds the bound 8"):
            euler_lagrange(prolong_apply(vf, lagr))
        assert not assert_matches_definition(vf, lagr).trivial
