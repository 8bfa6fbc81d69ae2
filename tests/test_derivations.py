"""Prolonged vector fields, variational symmetry checks, nilpotency."""

import random
from fractions import Fraction

from conftest import even_field, odd_field, odd_ghost, v

from nkt.derivations import (
    GeneralizedVectorField,
    check_nilpotent,
    check_variational,
    contract_with_EL,
    first_variational_residual,
    lie_derivative_density,
    prolong_apply,
)
from nkt.graded_poly import Density, GradedPolynomial, Parity
from nkt.jet_calculus import total_derivative
from nkt.randgen import graded_fields, random_polynomial


Y = even_field("y")
C = odd_field("c")


def _density(p):
    return Density(p)


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
        lagr = _density(v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2)))
        assert contract_with_EL(vf, lagr).expr == -v(Y, 0, 0)

    def test_shift_symmetry_is_variational(self):
        vf = GeneralizedVectorField({Y: GradedPolynomial.one()})
        lagr = _density(v(Y, 0) * v(Y, 0).scaled(Fraction(1, 2)))
        assert check_variational(vf, lagr).trivial

    def test_scaling_of_mass_term_is_not_variational(self):
        # upsilon^y = y, L = (1/2) y^2: upsilon . E = y^2, EL residual 2y
        vf = GeneralizedVectorField({Y: v(Y)})
        lagr = _density(v(Y) * v(Y).scaled(Fraction(1, 2)))
        report = check_variational(vf, lagr)
        assert not report.trivial
        assert report.residuals == {Y: v(Y).scaled(2)}


class TestFirstVariationalFormula:
    def test_graded_shift_example(self):
        # upsilon^c = y on L = c c_x: theta(L) - upsilon^c E_c = -d_x(y c)
        vf = GeneralizedVectorField({C: v(Y)})
        lagr = _density(v(C) * v(C, 0))
        report = first_variational_residual(vf, lagr)
        assert report.residual == -total_derivative(v(Y) * v(C), 0)
        assert report.holds

    def test_bare_polynomial_gives_the_density_report(self):
        vf = GeneralizedVectorField({C: v(Y)})
        p = v(C) * v(C, 0)
        report = first_variational_residual(vf, p)
        assert report == first_variational_residual(vf, _density(p))
        assert not report.residual.is_zero()
        assert lie_derivative_density(vf, p) == lie_derivative_density(vf, _density(p))

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
            lagr = _density(random_polynomial(rng, fields, 1, parity=Parity.EVEN))
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
        assert lie_derivative_density(vf, _density(p)).expr == prolong_apply(vf, p)
