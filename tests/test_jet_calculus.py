"""Total derivatives, graded partials, Euler-Lagrange, divergence triviality."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest

from conftest import even_field, odd_field, odd_ghost, v
from nkt.graded_poly import (
    GradedPolynomial,
    JetVariable,
    Parity,
    gp_normalize,
)
from nkt import config, multiindex
from nkt.errors import JetOrderError
from nkt.jet_calculus import (
    euler_lagrange,
    is_variationally_trivial,
    partial_left,
    partial_right,
    total_derivative,
    total_derivative_multi,
)
from nkt.multiindex import MultiIndex

Y = even_field("y")
C = odd_field("c")


def jv(var, *dirs):
    return JetVariable(var, MultiIndex(dirs))


def _random_poly(rng: random.Random, pool, max_terms=3, max_factors=3) -> GradedPolynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        fs = [rng.choice(pool) for _ in range(rng.randint(0, max_factors))]
        terms.append((Fraction(rng.randint(-3, 3)), fs))
    return gp_normalize(terms)


def _random_homogeneous(rng: random.Random, pool, parity: Parity) -> GradedPolynomial:
    for _ in range(40):
        p = _random_poly(rng, pool)
        if p.parity() is parity and not p.is_zero():
            return p
    return GradedPolynomial.zero() if parity is Parity.EVEN else v(C)


# -- total derivatives ---------------------------------------------------------


def test_total_derivative_graded_example() -> None:
    # d_x(c c_x) = c_x c_x + c c_xx = c c_xx
    assert total_derivative(v(C) * v(C, 0), 0) == v(C) * v(C, 0, 0)


def test_total_derivative_even_example() -> None:
    # d_x(y^2) = 2 y y_x
    assert total_derivative(v(Y) * v(Y), 0) == (v(Y) * v(Y, 0)).scaled(2)


def test_total_derivative_hits_base_coordinates() -> None:
    x = GradedPolynomial.coordinate(0)
    assert total_derivative(x * v(Y), 0) == v(Y) + x * v(Y, 0)
    assert total_derivative(GradedPolynomial.one(), 0).is_zero()


def test_total_derivative_drops_each_coordinate_factor_once() -> None:
    x0, x1 = GradedPolynomial.coordinate(0), GradedPolynomial.coordinate(1)
    y = v(Y)
    # d_x0(x0^2 y) = 2 x0 y + x0^2 y_x0
    assert total_derivative(x0 * x0 * y, 0) == (x0 * y).scaled(2) + x0 * x0 * v(Y, 0)
    # other coordinates are constants along x0
    assert total_derivative(x1 * y, 0) == x1 * v(Y, 0)
    assert total_derivative(x0 * x1 * x1, 0) == x1 * x1


def test_coordinates_are_not_variables() -> None:
    x0 = GradedPolynomial.coordinate(0)
    p = x0 * v(Y)
    assert p.variables() == {jv(Y)}
    assert p.base_variables() == {Y} and p.max_jet_order() == 0
    assert dict(p.left_partials()) == dict(p.right_partials()) == {jv(Y): x0}
    assert not x0.variables() and not x0.left_partials()


def test_total_derivatives_commute() -> None:
    rng = random.Random(11)
    pool = [jv(Y), jv(Y, 0), jv(Y, 1), jv(C), jv(C, 1)]
    for _ in range(100):
        p = _random_poly(rng, pool)
        d01 = total_derivative(total_derivative(p, 0), 1)
        d10 = total_derivative(total_derivative(p, 1), 0)
        assert d01 == d10


def test_total_derivative_multi_matches_iteration() -> None:
    p = v(Y) * v(Y, 0) + v(C) * v(C, 1)
    mi = MultiIndex((0, 1))
    assert total_derivative_multi(p, mi) == total_derivative(
        total_derivative(p, 0), 1
    )


def test_total_derivative_is_even_derivation() -> None:
    rng = random.Random(13)
    pool = [jv(Y), jv(Y, 0), jv(C), jv(C, 0)]
    for _ in range(100):
        p, q = _random_poly(rng, pool), _random_poly(rng, pool)
        assert total_derivative(p * q, 0) == total_derivative(p, 0) * q + p * total_derivative(q, 0)


def test_total_derivative_checks_the_jet_order_bound_once(monkeypatch) -> None:
    # y_xx c - y c_x: raising y_xx along x reaches order 3
    p = v(Y, 0, 0) * v(C) - v(Y) * v(C, 0) * v(C, 0, 0)
    first = total_derivative(p, 0)  # fills every raise cache
    reads = []
    bound = multiindex.max_jet_order
    monkeypatch.setattr(multiindex, "max_jet_order", lambda: reads.append(1) or bound())
    assert total_derivative(p, 0) == first
    assert len(reads) == 1
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
    config.reload()
    with pytest.raises(JetOrderError) as err:
        total_derivative(p, 0)
    assert str(err.value) == (
        "jet order 3 exceeds the bound 2 (raise NKT_MAX_JET_ORDER to override)"
    )
    # jets already past a lowered bound: the highest raised order is named,
    # whatever order the terms were inserted in
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "1")
    config.reload()
    for q in (p, GradedPolynomial(dict(reversed(p.raw_terms())))):
        with pytest.raises(JetOrderError, match="^jet order 3 exceeds the bound 1 "):
            total_derivative(q, 0)


def test_euler_lagrange_checks_the_jet_order_bound_with_warm_memos(monkeypatch) -> None:
    # E_y of y_xx^2 c c_x is 2 d_x d_x (y_xx c c_x): its last raise reaches order 4
    lag = v(Y, 0, 0) * v(Y, 0, 0) * v(C) * v(C, 0)
    first = euler_lagrange(lag)  # fills the partials and every image memo
    partials = lag.left_partials()
    assert euler_lagrange(lag).components == first.components
    assert lag.left_partials() is partials
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "3")
    config.reload()
    with pytest.raises(JetOrderError) as err:
        euler_lagrange(lag)
    assert str(err.value) == (
        "jet order 4 exceeds the bound 3 (raise NKT_MAX_JET_ORDER to override)"
    )
    assert lag.left_partials() is partials


def test_total_derivative_raises_in_place_with_the_koszul_sign() -> None:
    # d_x(c c_x c_y) = c_x c_x c_y + c c_xx c_y + c c_x c_xy; the first term
    # vanishes (c_x lands on c_x), c_xx passes no odd factor, and c_xy is
    # already last
    p = v(C) * v(C, 0) * v(C, 1)
    assert total_derivative(p, 0) == v(C) * v(C, 0, 0) * v(C, 1) + v(C) * v(C, 0) * v(C, 0, 1)
    # d_y(c c_x c_y) = c_y c_x c_y + c c_xy c_y + c c_x c_yy: c_xy passes c_y,
    # giving c c_y c_xy with a minus sign
    assert total_derivative(p, 1) == (
        v(C) * v(C, 1) * v(C, 0, 1) * GradedPolynomial.scalar(-1)
        + v(C) * v(C, 0) * v(C, 1, 1)
    )


# -- graded partial derivatives --------------------------------------------------


def test_partial_left_examples() -> None:
    p = v(C) * v(C, 0)
    assert partial_left(p, jv(C)) == v(C, 0)
    assert partial_left(p, jv(C, 0)) == -v(C)


def test_partial_right_examples() -> None:
    p = v(C) * v(C, 0)
    assert partial_right(p, jv(C)) == -v(C, 0)
    assert partial_right(p, jv(C, 0)) == v(C)


def test_partial_left_even_multiplicity() -> None:
    assert partial_left(v(Y) * v(Y), jv(Y)) == v(Y).scaled(2)
    assert partial_left(v(Y) * v(Y) * v(Y), jv(Y)) == (v(Y) * v(Y)).scaled(3)


def test_left_right_relation_on_homogeneous_polynomials() -> None:
    # right(p) = (-1)^{[v]([p]+[v])} left(p)
    rng = random.Random(17)
    pool = [jv(Y), jv(C), jv(C, 0), jv(odd_ghost("g"))]
    for var in (jv(Y), jv(C), jv(C, 0)):
        for parity in (Parity.EVEN, Parity.ODD):
            for _ in range(50):
                p = _random_homogeneous(rng, pool, parity)
                lhs = partial_right(p, var)
                sign = (int(var.parity) * (int(parity) + int(var.parity))) % 2
                rhs = partial_left(p, var)
                assert lhs == (-rhs if sign else rhs)


def test_partial_left_graded_leibniz() -> None:
    rng = random.Random(19)
    pool = [jv(Y), jv(C), jv(C, 0)]
    for var in (jv(Y), jv(C)):
        for p_parity in (Parity.EVEN, Parity.ODD):
            for _ in range(50):
                p = _random_homogeneous(rng, pool, p_parity)
                q = _random_poly(rng, pool)
                lhs = partial_left(p * q, var)
                sign_flip = int(var.parity) * int(p_parity) % 2
                second = p * partial_left(q, var)
                rhs = partial_left(p, var) * q + (-second if sign_flip else second)
                assert lhs == rhs


# -- Euler-Lagrange ---------------------------------------------------------------


def test_euler_lagrange_free_scalar() -> None:
    # L = 1/2 y_x^2  ->  E_y = -y_xx
    lag = (v(Y, 0) * v(Y, 0)).scaled(Fraction(1, 2))
    derivs = euler_lagrange(lag, [Y])
    assert derivs[Y] == -v(Y, 0, 0)


def test_euler_lagrange_odd_first_order() -> None:
    # L = c c_x  ->  E_c = 2 c_x
    lag = v(C) * v(C, 0)
    derivs = euler_lagrange(lag, [C])
    assert derivs[C] == v(C, 0).scaled(2)


def test_variational_derivatives_iterate_over_their_variables() -> None:
    # without __iter__, iteration falls back to indexing 0, 1, 2, ..., which
    # __getitem__ answers with zero forever; islice bounds a regression
    lag = v(Y, 0) * v(Y, 0) + v(C) * v(C, 0)
    derivs = euler_lagrange(lag, [Y, C])
    assert list(islice(derivs, 3)) == [Y, C]
    assert list(derivs) == list(derivs.components)
    assert dict(zip(derivs, map(derivs.__getitem__, derivs))) == derivs.components


def test_euler_lagrange_two_odd_fields() -> None:
    c1, c2 = odd_field("c", 1), odd_field("c", 2)
    lag = v(c1) * v(c2)
    derivs = euler_lagrange(lag)
    assert derivs[c1] == v(c2)
    assert derivs[c2] == -v(c1)


def test_euler_lagrange_second_order() -> None:
    # L = 1/2 y_xx^2  ->  E_y = y_xxxx
    lag = (v(Y, 0, 0) * v(Y, 0, 0)).scaled(Fraction(1, 2))
    assert euler_lagrange(lag)[Y] == v(Y, 0, 0, 0, 0)


def test_euler_lagrange_mixed_directions() -> None:
    # L = 1/2 y_{01}^2  ->  E_y = y_{0011}
    lag = (v(Y, 0, 1) * v(Y, 0, 1)).scaled(Fraction(1, 2))
    assert euler_lagrange(lag)[Y] == v(Y, 0, 0, 1, 1)


def test_euler_lagrange_silent_variable_is_zero() -> None:
    z = even_field("z")
    derivs = euler_lagrange(v(Y) * v(Y), [Y, z])
    assert derivs[z].is_zero()
    assert derivs[Y] == v(Y).scaled(2)


def test_euler_lagrange_annihilates_divergence_example() -> None:
    # rho = d_x(y y_x) = y_x^2 + y y_xx
    rho = total_derivative(v(Y) * v(Y, 0), 0)
    assert euler_lagrange(rho)[Y].is_zero()


def test_euler_lagrange_annihilates_random_divergences() -> None:
    rng = random.Random(23)
    pool = [jv(Y), jv(Y, 0), jv(Y, 1), jv(C), jv(C, 0)]
    for _ in range(60):
        current0 = _random_poly(rng, pool)
        current1 = _random_poly(rng, pool)
        rho = total_derivative(current0, 0) + total_derivative(current1, 1)
        assert euler_lagrange(rho).all_zero()


# -- variational triviality ---------------------------------------------------------


def test_trivial_density_detected() -> None:
    report = is_variationally_trivial(v(Y) * v(Y, 0))  # = d_x(y^2/2)
    assert report.trivial
    assert not report.residuals


def test_nontrivial_density_reports_residual() -> None:
    report = is_variationally_trivial((v(Y) * v(Y)).scaled(Fraction(1, 2)))
    assert not report.trivial
    assert report.residuals == {Y: v(Y)}


def test_constant_density_is_flagged_trivial() -> None:
    report = is_variationally_trivial(GradedPolynomial.one())
    assert report.trivial
    assert len(report.assumptions) == 2


def test_coordinate_density_is_flagged_trivial() -> None:
    report = is_variationally_trivial(GradedPolynomial.coordinate(0))
    assert report.trivial
    assert any("base coordinates" in a for a in report.assumptions)
