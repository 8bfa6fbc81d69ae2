"""The eta transform, operator composition, and Noether's second theorem."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import even_field, even_ghost, odd_field, odd_ghost, split_weight, v

from nkt import cli, config, derivations, jet_calculus, noether
from nkt.derivations import GeneralizedVectorField, check_variational, contract_with_EL
from nkt.graded_poly import (
    Density, GradedPolynomial, Kind, Parity, gp_sum_of_derivatives,
)
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
from nkt.errors import JetOrderError, SemanticError
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

    def test_eta_matches_its_definition_term_by_term(self):
        # random operators of orders up to 3 in dims 1-3, most of them
        # meeting multi-indices whose splits are already known
        rng = random.Random(35)
        fields = graded_fields(1, 1)
        for dim in (1, 2, 3):
            for order in (1, 2, 3):
                for _ in range(4):
                    op = random_operator(rng, [XI], [Y, S], fields, dim, max_order=order)
                    got, want = noether.eta_family(op.coeffs), eta_by_definition(op.coeffs)
                    assert got == want
                    assert list(got) == list(want)

    @pytest.mark.parametrize("entries, dim, bound, named", [
        ((0, 0, 0), 1, 1, 2),  # Lam runs (), [0], [0,0]: [0,0] is the first past
        ((0, 1, 1), 2, 1, 2),
        ((0, 0, 1, 1), 2, 2, 3),  # ..., [1,1], [0], [0,1], [0,1,1]
    ])
    def test_eta_names_the_first_split_past_a_lowered_bound(
        self, monkeypatch, entries, dim, bound, named
    ):
        op = op_of(dim, ROLE_GAUGE, {
            (XI, Y, EMPTY): GradedPolynomial.one(),
            # a constant: its derivatives vanish before any step could raise
            (XI, Y, MultiIndex(entries)): GradedPolynomial.scalar(2),
        })

        def outcome(transform):
            monkeypatch.setenv("NKT_MAX_JET_ORDER", str(bound))
            config.reload()
            try:
                transform(op.coeffs)
            except JetOrderError as exc:
                return str(exc)
            finally:
                monkeypatch.delenv("NKT_MAX_JET_ORDER")
                config.reload()

        mi = MultiIndex(entries)
        object.__setattr__(mi, "_splits", None)  # cold: its splits forgotten
        cold = outcome(noether.eta_family)
        assert mi._splits is None
        want = eta(op)  # under the default bound: the splits are kept
        assert mi._splits is not None
        warm = outcome(noether.eta_family)
        message = (
            f"jet order {named} exceeds the bound {bound}"
            " (raise NKT_MAX_JET_ORDER to override)"
        )
        assert cold == warm == outcome(eta_by_definition) == message
        assert eta(op) == want


def sub_multiindices(mi):
    """Every multiset contained in mi, the last direction's count fastest."""
    groups = {}
    for e in mi.entries:
        groups[e] = groups.get(e, 0) + 1
    dirs = sorted(groups)
    out = []
    for counts in itertools.product(*(range(groups[d] + 1) for d in dirs)):
        entries = ()
        for d, c in zip(dirs, counts):
            entries += (d,) * c
        out.append(MultiIndex(entries))
    return out


def splits_by_definition(mi):
    """(Lam, Sigma's entries, split_weight(Sigma, Lam)) for each Lam of
    sub_multiindices(mi), Sigma being what Lam leaves of mi."""
    out = []
    for lam in sub_multiindices(mi):
        sigma_entries = list(mi.entries)
        for e in lam.entries:
            sigma_entries.remove(e)
        sigma = MultiIndex(tuple(sigma_entries))
        out.append((lam, sigma.entries, split_weight(sigma, lam)))
    return out


def eta_by_definition(coeffs):
    """eta_family from its definition: every coefficient's multi-index is
    split afresh, its Lam in the order of sub_multiindices."""
    parts = {}
    for (param, target, total_mi), poly in coeffs.items():
        for lam, sigma, weight in splits_by_definition(total_mi):
            if total_mi.order & 1:
                weight = -weight
            parts.setdefault((param, target, lam), []).append((poly, sigma, weight))
    sums = {key: gp_sum_of_derivatives(items) for key, items in parts.items()}
    return {key: p for key, p in sums.items() if not p.is_zero()}


def test_splits_match_their_definition_in_order_and_weight():
    for mi in mi_enumerate(3, 4):
        assert list(mi.splits()) == splits_by_definition(mi), mi
        assert mi.splits() is mi.splits()  # kept on the instance

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
        # computed on its own: derive-noether takes the identity from the theorem
        assert check_noether_identity(noe, _abelian_lagrangian()).holds

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
        # the verdict is decided on theta(L), and a symmetry that passes
        # takes its identity from the theorem: E(L) is never built
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

    def test_stage_operators_state_no_noether_identity(self):
        path = Path(__file__).resolve().parent.parent / "theories" / "two_form.nkt"
        theory = parse_theory(path.read_text())
        lagr, shift = theory.lagrangian, theory.operators["lambda_shift"]
        dual = eta(shift)
        assert (shift.role, shift.stage, dual.role, dual.stage) == (
            ROLE_GAUGE, 0, ROLE_NOETHER, 0
        )
        # the dual's targets are ghosts, whose E(L) is 0: the identity
        # would hold with nothing checked
        assert all(r.is_zero() for r in noether_residuals(dual, lagr).values())
        message = (
            "operator of stage 0 states a reducibility identity, not a Noether"
            " identity; check it with check-reducibility"
        )
        for refused in (check_noether_identity, derive_gauge_from_noether):
            with pytest.raises(SemanticError) as err:
                refused(dual, lagr)
            assert str(err.value) == message
        # the gauge reading is refused as every stage operator was before
        with pytest.raises(SemanticError) as err:
            check_noether_identity(shift, lagr)
        assert str(err.value) == "check_noether_identity expects a noether-role operator"
        with pytest.raises(SemanticError) as err:
            derive_noether_from_gauge(shift, lagr)
        assert str(err.value) == "derive_noether_from_gauge expects a gauge-role operator"

    def test_a_role_is_a_reading(self):
        with pytest.raises(ValueError, match="unknown operator role 'stage'"):
            op_of(1, "stage", {})


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
    # the verdict is decided on theta(L), and the theorem gives the identity
    assert len(on_lagrangian) == 0
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


# -- Noether's second theorem: each derivation's other half ---------------------

Y1, Y2 = even_field("y1"), even_field("y2")
C, R = odd_field("c"), odd_ghost("r")


def _rotation():
    return op_of(1, ROLE_GAUGE, {(R, Y1, EMPTY): -v(Y2), (R, Y2, EMPTY): v(Y1)})


def _half_norm():
    return (v(Y1) * v(Y1) + v(Y2) * v(Y2)).scaled(Fraction(1, 2))


def _random_draws(seed, count):
    """Per seeded draw, on a random even Lagrangian of one even and one odd
    field: trivial_gauge_symmetry over a graded-antisymmetric table, then a
    random first-order operator, which is mostly not a symmetry."""
    rng = random.Random(seed)
    fields = graded_fields(1, 1)
    for _ in range(count):
        dim = rng.randint(1, 2)
        lagr = random_polynomial(rng, fields, dim, max_order=1, parity=Parity.EVEN)
        param = rng.choice([XI, odd_ghost("chi")])
        slots = [(f, mi) for f in fields for mi in mi_enumerate(dim, 1)]
        table = {}
        for _ in range(rng.randint(1, 2)):
            u, s = rng.sample(slots, 2)
            p = random_polynomial(rng, fields, dim, max_order=1, max_terms=2)
            odd = u[0].parity is s[0].parity is Parity.ODD
            table[(param, u, s)], table[(param, s, u)] = p, p if odd else -p
        trivial = trivial_gauge_symmetry(table, lagr, dim)
        other = random_operator(rng, [param], fields, fields, dim, max_order=1)
        yield trivial, other, lagr


def _random_gauge_operators(seed, count):
    """Each draw's table operator, where it is not zero, then its random one."""
    for trivial, other, lagr in _random_draws(seed, count):
        if trivial.coeffs:
            yield trivial, lagr
        yield other, lagr


def _gauge_operators():
    """The bundled gauge operators, then seeded random ones."""
    yield _abelian_gauge_op(), _abelian_lagrangian()
    for name, op in (("two_form", "gauge_sym"), ("on_shell_pair", "rot"),
                     ("ym_su2", "gauge_sym")):
        yield _bundled_gauge_symmetry(name, op)
    yield from _random_gauge_operators(46, 40)


def test_derive_gauge_reports_what_check_variational_finds():
    # theta(L) of eta(op)'s field is sum_r r * (identity of op)_r up to a
    # divergence, so the identity decides variationality; with the last
    # Lagrangian, which reads the parameter r, the identity still holds
    read = (_rotation(), _half_norm() + (v(R) * v(C) * _half_norm()))
    passed = 0
    for gauge, lagr in [*_gauge_operators(), read]:
        dual = eta(gauge)
        oracle = check_variational(gauge_vector_field(eta(dual)), lagr)
        try:
            back, report = derive_gauge_from_noether(dual, lagr)
        except NoetherIdentityError:
            assert not oracle.trivial
            continue
        assert back == gauge and report.variational == oracle
        passed += 1
    assert passed >= 30


def test_each_derive_noether_pass_satisfies_the_identity():
    passed = 0
    for gauge, lagr in _gauge_operators():
        try:
            noe, report = derive_noether_from_gauge(gauge, lagr)
        except NonVariationalError:
            assert not check_noether_identity(eta(gauge), lagr).holds
            continue
        assert report.holds and check_noether_identity(noe, lagr).holds
        assert set(report.residuals) == set(noe.parameters())
        passed += 1
    assert passed >= 30


def test_a_parameter_read_by_the_lagrangian_is_refused():
    # the check passes, but E_r(theta(L)) is no longer the identity: the
    # r-dependence of L adds a term, and the identity leaves c*y2*r
    lagr = _half_norm() + v(R) * v(C) * v(Y1)
    assert check_variational(gauge_vector_field(_rotation()), lagr).trivial
    assert not check_noether_identity(eta(_rotation()), lagr).holds
    with pytest.raises(SemanticError) as err:
        derive_noether_from_gauge(_rotation(), lagr)
    assert str(err.value) == "the lagrangian or a coefficient reads the parameter r"


def test_a_parameter_read_by_a_coefficient_is_refused():
    # Q^y = s*s_x on L = y: theta(L) = d_x(s^2/2) passes, yet the identity
    # leaves s_x, since E_s(s*N_s) is no longer N_s when N_s reads s
    op = op_of(1, ROLE_GAUGE, {(S, Y, EMPTY): v(S, 0)})
    assert check_variational(gauge_vector_field(op), v(Y)).trivial
    assert check_noether_identity(eta(op), v(Y)).residuals == {S: v(S, 0)}
    with pytest.raises(SemanticError) as err:
        derive_noether_from_gauge(op, v(Y))
    assert str(err.value) == "the lagrangian or a coefficient reads the parameter s"


def _ghost_linear_cases():
    """(vf, L, dim): the field part of every bundled derivation, then 200
    seeded gauge fields of random operators on even Lagrangians."""
    theory_dir = Path(__file__).resolve().parent.parent / "theories"
    for path in sorted(theory_dir.glob("*.nkt")):
        theory = parse_theory(path.read_text())
        for vf in theory.derivations.values():
            part = {t: p for t, p in vf.components.items() if t.kind is Kind.FIELD}
            yield GeneralizedVectorField(part), theory.lagrangian, theory.dim
    rng = random.Random(2023)
    ghosts = [odd_ghost("g0"), even_ghost("g1")]
    fields = graded_fields(2, 1)
    for _ in range(200):
        dim = rng.randint(1, 2)
        lagr = random_polynomial(rng, fields, dim, max_order=1, parity=Parity.EVEN)
        op = random_operator(rng, ghosts, fields, fields, dim, max_order=1)
        yield gauge_vector_field(op), lagr, dim


def test_noether_second_theorem_holds_term_by_term():
    # for a ghost-linear field, the ghost components of E(theta(L)) are the
    # Noether identities of eta of its operator, exactly
    checked = nonzero = 0
    for vf, lagr, dim in _ghost_linear_cases():
        try:
            op = linearize_in_ghosts(vf, dim)
        except SemanticError:  # a derivation that is not ghost-linear
            continue
        identities = noether_residuals(eta(op), lagr)
        theta = derivations.prolong_apply(vf, lagr)
        assert euler_lagrange(theta, op.parameters()).components == identities
        checked += 1
        nonzero += any(not n.is_zero() for n in identities.values())
    assert checked == 202 and nonzero > 100


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

    def test_every_random_table_gives_a_variational_symmetry(self):
        tables = 0
        for trivial, _, lagr in _random_draws(46, 40):
            if trivial.coeffs:
                assert check_variational(gauge_vector_field(trivial), lagr).trivial
                tables += 1
        assert tables >= 15

    def test_symmetric_table_is_rejected(self):
        one = GradedPolynomial.one()
        slot_a = (Y, EMPTY)
        slot_b = (Y, MX)
        table = {(XI, slot_a, slot_b): one, (XI, slot_b, slot_a): one}
        lagr = Density((v(Y, 0) * v(Y, 0)).scaled(Fraction(1, 2)))
        with pytest.raises(SemanticError):
            trivial_gauge_symmetry(table, lagr, 1)

    @pytest.mark.parametrize("name, mirror_sign, accepted", [
        ("odd-odd pair", 1, True),
        ("odd-odd pair", -1, False),
        ("odd diagonal", None, True),
        ("even-odd pair with an odd entry", -1, True),
        ("even-odd pair with an odd entry", 1, False),
    ])
    def test_tables_are_graded_antisymmetric(self, name, mirror_sign, accepted):
        # L = c c_x y + y^2 with c odd: the field equations of odd fields
        # anticommute, so a table is accepted exactly when the symmetry its
        # entries make, built without the check, is variational
        c, r = odd_field("c"), odd_ghost("r")
        lagr = v(c) * v(c, 0) * v(Y) + v(Y) * v(Y)
        u, s, entry = {
            "odd-odd pair": ((c, EMPTY), (c, MX), GradedPolynomial.one()),
            "odd diagonal": ((c, EMPTY), (c, EMPTY), v(Y)),
            "even-odd pair with an odd entry": ((Y, EMPTY), (c, EMPTY), v(c)),
        }[name]
        table = {(r, u, s): entry}
        if mirror_sign is not None:
            table[(r, s, u)] = entry.scaled(mirror_sign)
        derivs = euler_lagrange(lagr)
        unchecked = {}
        for (_, (i, lam), (j, sigma)), poly in table.items():
            key = (r, i, lam)
            term = poly * total_derivative_multi(derivs[j], sigma)
            unchecked[key] = unchecked.get(key, GradedPolynomial.zero()) + term
        built = op_of(1, ROLE_GAUGE, noether.eta_family(unchecked))
        assert check_variational(gauge_vector_field(built), lagr).trivial is accepted
        if accepted:
            assert trivial_gauge_symmetry(table, lagr, 1) == built
        else:
            with pytest.raises(SemanticError, match="graded-antisymmetric"):
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


# --------------------------------------------------------------------------
# The order-n tensor gauge family: theories/tensor_gauge.nkt is n = 2.


def _tensor_gauge_text(n: int) -> str:
    """A[j,k1..k(n-1)] on a three dimensional base, shifted by the n-th
    derivative d_j d_k1 ... d_k(n-1) C of an odd ghost; the curl
    d_i A[j,...] - d_j A[i,...] is invariant."""
    ks = [f"k{m}" for m in range(1, n)]
    ranges = ",".join(f"{label}=0..2" for label in ["j", *ks])
    rest = ",".join(ks)
    sums = "".join(f"sum({label},0..2, " for label in ["i", "j", *ks])
    curl = f"(d(A[j,{rest}];i) - d(A[i,{rest}];j))^2"
    return (
        f"theory tensor_gauge_{n}\ndim 3\n"
        f"field A[{ranges}] parity even\nghost C parity odd\n"
        f"lagrangian 1/2 * {sums}{curl}{')' * (n + 1)}\n"
        f"operator gauge_sym role gauge {{\n  (C, A[{ranges}], [j,{rest}]) : 1\n}}\n"
        f"derivation gauge {{\n  A[{ranges}] : d(C;j,{rest})\n}}\n"
    )


def _tensor_gauge_verdicts(theory):
    lagr, op = theory.lagrangian, theory.operators["gauge_sym"]
    return (
        check_variational(theory.derivations["gauge"], lagr),
        derive_noether_from_gauge(op, lagr),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_order_n_tensor_gauge_symmetry_is_variational(n):
    theory = parse_theory(_tensor_gauge_text(n))
    assert len(theory.lagrangian.monomials()) == 3 ** (n + 1)
    variational, (noether_op, report) = _tensor_gauge_verdicts(theory)
    assert variational.trivial
    assert noether_op.role == ROLE_NOETHER and noether_op.max_order() == n
    assert report.holds
    # doubling one coefficient breaks the symmetry
    op = theory.operators["gauge_sym"]
    key = op.sorted_keys()[0]
    doubled = op_of(3, ROLE_GAUGE, {**op.coeffs, key: op.coeffs[key].scaled(2)})
    assert not check_variational(gauge_vector_field(doubled), theory.lagrangian).trivial
    with pytest.raises(NonVariationalError):
        derive_noether_from_gauge(doubled, theory.lagrangian)


def test_the_order_2_tensor_gauge_theory_is_the_bundled_one():
    bundled = Path(__file__).resolve().parent.parent / "theories" / "tensor_gauge.nkt"
    generated = _tensor_gauge_verdicts(parse_theory(_tensor_gauge_text(2)))
    assert generated == _tensor_gauge_verdicts(parse_theory(bundled.read_text()))


def test_the_order_6_tensor_gauge_field_has_too_many_components():
    # 3^6 = 729 components pass MAX_COMPONENTS (512) long before the ghost
    # jet order would pass the jet-order bound, at n = 9
    with pytest.raises(SemanticError, match="A declares too many components"):
        parse_theory(_tensor_gauge_text(6))
