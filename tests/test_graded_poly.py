"""Canonical forms, Koszul signs, parity bookkeeping, rendering."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import even_field, odd_field, odd_ghost, v
from nkt.graded_poly import (
    Coordinate,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    gp_normalize,
    render_polynomial,
)
from nkt import config
from nkt.errors import JetOrderError
from nkt.jet_calculus import total_derivative
from nkt.multiindex import MultiIndex

Y = even_field("y")
C = odd_field("c")
C1 = odd_ghost("c", 1)
C2 = odd_ghost("c", 2)


def jv(var, *dirs):
    return JetVariable(var, MultiIndex(dirs))


# -- coordinates ------------------------------------------------------------


def test_coordinate_arithmetic() -> None:
    x = GradedPolynomial.coordinate(0)
    p = x * x + GradedPolynomial.scalar(Fraction(1, 2))
    assert total_derivative(p, 0) == x.scaled(2)
    assert (p - p).is_zero()
    assert p * GradedPolynomial.zero() == GradedPolynomial.zero()
    assert GradedPolynomial.scalar(3).raw_terms() == (((), 3),)
    x0 = Coordinate(0)
    assert p.raw_terms() == (((), Fraction(1, 2)), ((x0, x0), 1))
    assert not p.variables() and p.parity() is Parity.EVEN


def test_coordinate_render() -> None:
    x0, x1 = GradedPolynomial.coordinate(0), GradedPolynomial.coordinate(1)
    s = x0 * x0.scaled(2) + x1.scaled(-1) + GradedPolynomial.scalar(Fraction(3, 2))
    assert render_polynomial(s, 2) == "(3/2 + 2*x0^2 - x1)"
    assert render_polynomial(x0, 1) == "x"
    assert render_polynomial(x0 - x0, 1) == "0"
    # coordinate monomials order by exponents ((k, e), ...): x0*x1 before x0^2
    q = (x0 * x0 + x0 * x1 + GradedPolynomial.one()) * v(Y)
    assert render_polynomial(q, 2) == "(1 + x0*x1 + x0^2)*y"


# -- normalization and signs --------------------------------------------------


def test_odd_transposition_flips_sign() -> None:
    # c_x * c reorders to -c * c_x
    p = gp_normalize([(1, [jv(C, 0), jv(C)])])
    q = gp_normalize([(-1, [jv(C), jv(C, 0)])])
    assert p == q
    ((flat, coeff),) = p.raw_terms()
    assert flat == (jv(C), jv(C, 0))
    assert coeff == -1 and type(coeff) is Fraction


def test_odd_square_vanishes() -> None:
    assert (v(C) * v(C)).is_zero()
    assert gp_normalize([(1, [jv(C), jv(C)])]).is_zero()
    # (c1 c2)^2 = 0 as well
    p = v(C1) * v(C2)
    assert (p * p).is_zero()


def test_mixed_sum_times_odd() -> None:
    # (c + y) * c = c*y  (the c*c term vanishes; y c reorders without sign)
    p = (v(C) + v(Y)) * v(C)
    assert p == v(C) * v(Y)


def test_anticommutation_of_distinct_odd_variables() -> None:
    assert v(C1) * v(C2) == -(v(C2) * v(C1))


def test_even_variables_commute() -> None:
    z = even_field("z")
    assert v(Y) * v(z) == v(z) * v(Y)


def test_the_constructor_canonicalizes_its_factors() -> None:
    # the factor tuples of a term map may come in any order
    y, z, c, c_x = jv(Y), jv(even_field("z")), jv(C), jv(C, 0)
    assert GradedPolynomial({(z, y): 1}) == GradedPolynomial({(y, z): 1}) == v(Y) * v(z.var)
    assert (GradedPolynomial({(z, y): 1}) - GradedPolynomial({(y, z): 1})).is_zero()
    assert render_polynomial(GradedPolynomial({(z, y): 1}), 1) == "y*z"
    # an odd square vanishes, and an odd transposition flips the sign
    assert GradedPolynomial({(c, c): 1}).is_zero()
    assert GradedPolynomial({(c_x, c): 1}) == -GradedPolynomial({(c, c_x): 1})
    # a coordinate after a jet variable moves to the front
    p = GradedPolynomial({(y, Coordinate(0)): 1})
    assert p == GradedPolynomial.coordinate(0) * v(Y)
    assert p.raw_terms() == (((Coordinate(0), y), 1),)
    assert render_polynomial(p, 1) == "x*y"
    # two orderings of one monomial add up
    assert GradedPolynomial({(c_x, c): 1, (c, c_x): 1}).is_zero()
    assert GradedPolynomial({(z, y): 1, (y, z): Fraction(1, 2)}) == (v(Y) * v(z.var)).scaled(
        Fraction(3, 2)
    )


def test_like_terms_merge_and_cancel() -> None:
    p = gp_normalize([(1, [jv(Y)]), (2, [jv(Y)])])
    assert p == v(Y).scaled(3)
    assert gp_normalize([(1, [jv(Y)]), (-1, [jv(Y)])]).is_zero()


def test_canonical_order_across_kinds() -> None:
    # field < ghost < antifield < antighost
    af = antifield_of(Y)
    ag = antifield_of(C1)
    p = v(af) * v(C1) * v(Y)
    ((flat, _),) = p.raw_terms()
    assert [f.var.kind for f in flat] == [Kind.FIELD, Kind.GHOST, Kind.ANTIFIELD]
    q = v(ag) * v(af)
    ((flat2, _),) = q.raw_terms()
    assert [f.var.kind for f in flat2] == [Kind.ANTIFIELD, Kind.ANTIGHOST]


def test_parity() -> None:
    assert GradedPolynomial.zero().parity() is Parity.EVEN
    assert v(Y).parity() is Parity.EVEN
    assert v(C).parity() is Parity.ODD
    assert (v(C) * v(Y)).parity() is Parity.ODD
    assert (v(C1) * v(C2)).parity() is Parity.EVEN
    assert (v(C) + v(Y)).parity() is None


def test_antifield_parity_flips() -> None:
    assert antifield_of(Y).parity is Parity.ODD
    assert antifield_of(C).parity is Parity.EVEN
    with pytest.raises(ValueError):
        antifield_of(antifield_of(Y))


def test_power_operator() -> None:
    p = v(Y) + GradedPolynomial.one()
    assert p**2 == v(Y) * v(Y) + v(Y).scaled(2) + GradedPolynomial.one()
    assert (v(C) + v(C1)) ** 2 == v(C) * v(C1) + v(C1) * v(C)  # = 0
    assert ((v(C) + v(C1)) ** 2).is_zero()


# -- interned jet variables ----------------------------------------------------


def test_jet_variables_are_interned() -> None:
    assert JetVariable(Y, MultiIndex((1, 0))) is JetVariable(Y, MultiIndex((0, 1)))
    assert jv(C, 0, 2) is jv(C, 2, 0)
    assert JetVariable(Y) is jv(Y)
    assert jv(Y, 0) is not jv(Y, 1)


def test_kind_stage_and_parity_give_distinct_variables() -> None:
    variants = [
        VariableId(Kind.GHOST, "c", (1,), Parity.ODD),
        VariableId(Kind.GHOST, "c", (1,), Parity.EVEN),
        VariableId(Kind.GHOST, "c", (1,), Parity.ODD, stage=1),
        VariableId(Kind.GHOST, "c", (1,), Parity.EVEN, stage=2),
        VariableId(Kind.FIELD, "c", (1,), Parity.ODD),
        VariableId(Kind.ANTIGHOST, "c", (1,), Parity.ODD),
    ]
    jets = [jv(var, 0) for var in variants]
    assert len({id(j) for j in jets}) == len(variants)
    assert len(set(jets)) == len(variants)
    for var, j in zip(variants, jets):
        assert jv(var, 0) is j
        assert j.var == var
        assert j.odd == (var.parity is Parity.ODD)
        assert j.parity is var.parity


def test_raised_is_the_interned_variable() -> None:
    for var in (Y, C, C1):
        for dirs in ((), (1,), (0, 2)):
            j = jv(var, *dirs)
            for d in (0, 1, 2):
                up = j.raised(d)
                assert up is JetVariable(j.var, j.mi + d)
                assert j.raised(d) is up


def test_cached_raise_still_checks_the_jet_order_bound(monkeypatch) -> None:
    j = jv(Y, 0, 0)
    up = j.raised(1)
    monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
    config.reload()
    with pytest.raises(JetOrderError) as cached:
        j.raised(1)
    with pytest.raises(JetOrderError) as fresh:
        MultiIndex((0, 0, 1))
    assert str(cached.value) == str(fresh.value) == (
        "jet order 3 exceeds the bound 2 (raise NKT_MAX_JET_ORDER to override)"
    )
    monkeypatch.delenv("NKT_MAX_JET_ORDER")
    config.reload()
    assert j.raised(1) is up


# -- the canonical-form invariant ---------------------------------------------


def _permutation_sign(parities: list[Parity], perm: list[int]) -> int:
    """Koszul sign of permuting homogeneous factors: -1 per odd-odd inversion."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                if parities[perm[a]] is Parity.ODD and parities[perm[b]] is Parity.ODD:
                    sign = -sign
    return sign


def _random_tree_product(rng: random.Random, leaves: list[GradedPolynomial]) -> GradedPolynomial:
    work = list(leaves)
    while len(work) > 1:
        i = rng.randrange(len(work) - 1)
        work[i : i + 2] = [work[i] * work[i + 1]]
    return work[0]


def test_canonical_form_independent_of_association_and_commutation() -> None:
    rng = random.Random(20240)
    pool = [jv(Y), jv(Y, 0), jv(C), jv(C, 0), jv(C1), jv(C2), jv(even_field("z"))]
    for _ in range(1000):
        k = rng.randint(1, 6)
        factors = [rng.choice(pool) for _ in range(k)]
        base = gp_normalize([(1, factors)])

        # any association order of the same sequence gives the same polynomial
        leaves = [GradedPolynomial.variable(f) for f in factors]
        assert _random_tree_product(rng, leaves) == base

        # any commutation order gives the same polynomial up to the Koszul sign
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = gp_normalize([(1, [factors[i] for i in perm])])
        sign = _permutation_sign([f.parity for f in factors], perm)
        assert permuted == (base if sign > 0 else -base)


def test_multiplication_is_associative_and_distributive() -> None:
    rng = random.Random(7)
    pool = [jv(Y), jv(C), jv(C1), jv(Y, 0)]

    def rand_poly() -> GradedPolynomial:
        terms = []
        for _ in range(rng.randint(0, 3)):
            fs = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            terms.append((Fraction(rng.randint(-3, 3)), fs))
        return gp_normalize(terms)

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a.parity() is Parity.ODD and b.parity() is Parity.ODD:
            assert a * b == -(b * a)
        elif a.parity() is not None and b.parity() is not None:
            assert a * b == b * a


# -- rendering ---------------------------------------------------------------


def test_render_polynomial_examples() -> None:
    assert render_polynomial(GradedPolynomial.zero(), 1) == "0"
    assert render_polynomial(-v(Y, 0, 0), 1) == "-y[;x,x]"
    assert render_polynomial(v(Y) * v(Y), 1) == "y^2"
    p = v(C) * v(Y, 0) - GradedPolynomial.scalar(Fraction(1, 2))
    assert render_polynomial(p, 1) == "-1/2 + c*y[;x]"
    a = even_field("a", 0, 1)
    assert render_polynomial(v(a, 1), 2) == "a[0,1;x1]"
    af = antifield_of(Y)
    assert render_polynomial(v(af), 1) == "~y"


def test_render_polynomial_scalar_coefficients() -> None:
    x = GradedPolynomial.coordinate(0)
    p = (x + GradedPolynomial.one()) * v(Y)
    assert render_polynomial(p, 1) == "(1 + x)*y"
    q = x * v(Y).scaled(2)
    assert render_polynomial(q, 1) == "2*x*y"
