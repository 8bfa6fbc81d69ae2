"""Acceptance suite: one test per advertised guarantee, exact arithmetic only.

Each test is a single pass/fail line under pytest -v.  All identities are
checked bit-exactly on GradedPolynomial normal forms; there are no numeric
tolerances anywhere.  The two long-running criteria carry wall-clock budgets.
"""

import random
import time
from pathlib import Path

from nkt.derivations import (
    GeneralizedVectorField,
    check_nilpotent,
    check_variational,
    first_variational_residual,
)
from nkt.errors import ParseError, SemanticError
from nkt.graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    render_polynomial,
)
from nkt.jet_calculus import euler_lagrange, total_derivative, total_derivative_multi
from nkt.koszul_tate import (
    extend_with_operator,
    kt_apply,
    kt_context,
    kt_nilpotency_residuals,
)
from nkt.multiindex import EMPTY, MultiIndex, mi_enumerate
from nkt.noether import (
    check_noether_identity,
    derive_gauge_from_noether,
    derive_noether_from_gauge,
    eta,
    gauge_vector_field,
)
from nkt.randgen import (
    graded_fields,
    random_operator,
    random_polynomial,
    random_theory,
)
from nkt.theory_dsl import (
    parse_theory,
    render_theory,
    resolve_component,
)

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
GOLDEN = ["scalar", "scalar_mass", "two_form", "on_shell_pair", "ym_su2"]

GHOSTS = [VariableId(Kind.GHOST, f"g{i}", (), Parity.ODD) for i in range(3)]
PROBE = VariableId(Kind.FIELD, "zprobe", (), Parity.EVEN)


def operator_population():
    """200 random operators: dim <= 3, order <= 3, <= 3 parameters and
    targets, polynomial coefficients of degree <= 2."""
    rng = random.Random(20260818)
    fields = graded_fields(2, 1)
    out = []
    for _ in range(200):
        dim = rng.randint(1, 3)
        params = GHOSTS[: rng.randint(1, 3)]
        targets = rng.sample(fields, rng.randint(1, 3))
        out.append(
            random_operator(
                rng, params, targets, fields, dim,
                max_order=rng.randint(0, 3), keep=0.3,
            )
        )
    return out


class TestAcceptance:
    def test_01_eta_is_an_involution_on_200_random_operators(self):
        started = time.monotonic()
        for op in operator_population():
            assert eta(eta(op)) == op
        assert time.monotonic() - started < 30.0

    def test_02_eta_satisfies_the_adjoint_identity(self):
        # per channel: sum_Lam (-1)^|Lam| d_Lam(B^Lam z) == sum_Lam eta(B)^Lam d_Lam(z)
        z = GradedPolynomial.variable(JetVariable(PROBE, EMPTY))
        for op in operator_population():
            dual = eta(op)
            channels = {(p, t) for (p, t, _) in op.coeffs}
            channels |= {(p, t) for (p, t, _) in dual.coeffs}
            for param, target in channels:
                lhs = GradedPolynomial.zero()
                rhs = GradedPolynomial.zero()
                for mi in mi_enumerate(op.dim, max(op.max_order(), dual.max_order())):
                    b = op.coefficient(param, target, mi)
                    if not b.is_zero():
                        term = total_derivative_multi(b * z, mi)
                        lhs = lhs - term if mi.order & 1 else lhs + term
                    h = dual.coefficient(param, target, mi)
                    if not h.is_zero():
                        rhs = rhs + h * total_derivative_multi(z, mi)
                assert lhs == rhs

    def test_03_first_order_closed_form(self):
        # order <= 1: eta(B)^[] = B^[] - sum_mu d_mu B^[mu], eta(B)^[mu] = -B^[mu]
        rng = random.Random(4051)
        fields = graded_fields(2, 1)
        for _ in range(50):
            dim = rng.randint(1, 3)
            op = random_operator(
                rng, GHOSTS[: rng.randint(1, 2)], fields[:2], fields, dim,
                max_order=1, keep=0.5,
            )
            dual = eta(op)
            for param in op.parameters():
                for target in op.targets():
                    zero_part = op.coefficient(param, target, EMPTY)
                    for mu in range(dim):
                        first = op.coefficient(param, target, MultiIndex((mu,)))
                        assert dual.coefficient(
                            param, target, MultiIndex((mu,))
                        ) == -first
                        zero_part = zero_part - total_derivative(first, mu)
                    assert dual.coefficient(param, target, EMPTY) == zero_part

    def test_04_yang_mills_end_to_end(self):
        started = time.monotonic()
        theory = parse_theory((THEORY_DIR / "ym_su2.nkt").read_text())
        lagr = theory.lagrangian
        op = theory.operators["gauge_sym"]
        eps = theory.constants["eps"]

        # (a) the covariant-derivative symmetry is variational
        assert check_variational(gauge_vector_field(op), lagr).trivial

        # (b) the derived identity operator annihilates the field equations
        noether_op, report = derive_noether_from_gauge(op, lagr)
        assert report.holds
        assert all(r.is_zero() for r in report.residuals.values())
        # computed on its own: derive-noether takes the identity from the theorem
        assert check_noether_identity(noether_op, lagr).holds

        # the derived coefficients match the closed form
        # Delta^{a[lam,r],[]}_{C[q]} = sum_p eps[r,p,q] a[lam,p],
        # Delta^{a[lam,q],[lam]}_{C[q]} = -1
        for q in range(1, 4):
            cq = resolve_component(theory, f"C[{q}]")
            for lam in range(4):
                for r in range(1, 4):
                    target = resolve_component(theory, f"a[{lam},{r}]")
                    expected = GradedPolynomial.zero()
                    for p in range(1, 4):
                        coeff = eps.entry((r, p, q))
                        if coeff:
                            ap = resolve_component(theory, f"a[{lam},{p}]")
                            expected = expected + GradedPolynomial.variable(
                                JetVariable(ap, EMPTY)
                            ).scaled(coeff)
                    assert noether_op.coefficient(cq, target, EMPTY) == expected
                    deriv = noether_op.coefficient(cq, target, MultiIndex((lam,)))
                    if r == q:
                        assert deriv == GradedPolynomial.one().scaled(-1)
                    else:
                        assert deriv.is_zero()

        # (c) the reverse construction returns the original coefficients
        gauge_back, back_report = derive_gauge_from_noether(noether_op, lagr)
        assert gauge_back == op
        assert not back_report.notes
        assert time.monotonic() - started < 60.0

    def test_05_brst_nilpotency_with_negative_control(self):
        theory = parse_theory((THEORY_DIR / "ym_su2.nkt").read_text())
        assert check_nilpotent(theory.derivations["brst"]).nilpotent

        # same structure constants plus two off-orbit entries: the Jacobi
        # identity now fails in the e2 channel, so the square cannot vanish
        perturbed = parse_theory(
            """
            theory ym_su2_bad
            dim 4
            field a[mu=0..3,r=1..3] parity even
            ghost C[r=1..3] parity odd
            constant epsb[1..3,1..3,1..3] = {
              (1,2,3): 1
              (2,3,1): 1
              (3,1,2): 1
              (3,2,1): -1
              (2,1,3): -1
              (1,3,2): -1
              (1,1,2): 1
              (1,2,1): -1
            }
            derivation brst_bad {
              a[mu=0..3,r=1..3] : d(C[r];mu) + sum(p,1..3, sum(q,1..3, epsb[r,p,q]*a[mu,p]*C[q]))
              C[r=1..3] : -1/2 * sum(p,1..3, sum(q,1..3, epsb[r,p,q]*C[p]*C[q]))
            }
            """
        )
        report = check_nilpotent(perturbed.derivations["brst_bad"])
        assert not report.nilpotent
        rendered = {
            var.render(): render_polynomial(poly, 4)
            for var, poly in report.residuals.items()
        }
        assert rendered == {
            "a[0,2]": "-a[0,1]*C[2]*C[3] + a[0,2]*C[1]*C[3] - a[0,3]*C[1]*C[2]",
            "a[1,2]": "-a[1,1]*C[2]*C[3] + a[1,2]*C[1]*C[3] - a[1,3]*C[1]*C[2]",
            "a[2,2]": "-a[2,1]*C[2]*C[3] + a[2,2]*C[1]*C[3] - a[2,3]*C[1]*C[2]",
            "a[3,2]": "-a[3,1]*C[2]*C[3] + a[3,2]*C[1]*C[3] - a[3,3]*C[1]*C[2]",
            "C[2]": "-C[1]*C[2]*C[3]",
        }

    def test_06_koszul_tate_squares_to_zero_and_reflects_the_identity(self):
        rng = random.Random(6071)
        fields = graded_fields(2, 0)
        for _ in range(200):
            dim = rng.randint(1, 2)
            lagr = random_polynomial(
                rng, fields, dim, max_order=2, max_terms=2, parity=Parity.EVEN
            )
            ctx = kt_context(lagr, dim, fields)
            pool = fields + [antifield_of(f) for f in fields]
            p = random_polynomial(rng, pool, dim, max_order=1, max_terms=3)
            assert kt_apply(ctx, kt_apply(ctx, p)).is_zero()

        # biconditional, positive side: Yang-Mills
        ym = parse_theory((THEORY_DIR / "ym_su2.nkt").read_text())
        dual = eta(ym.operators["gauge_sym"])
        ctx = extend_with_operator(kt_context(ym.lagrangian, 4), dual)
        assert check_noether_identity(dual, ym.lagrangian).holds
        assert kt_nilpotency_residuals(ctx) == {}

        # negative side: the failing candidate of the negative controls
        bad_theory = parse_theory((THEORY_DIR / "scalar_mass.nkt").read_text())
        bad = bad_theory.operators["bad"]
        lagr = bad_theory.lagrangian
        ctx = extend_with_operator(kt_context(lagr, 1), bad)
        identity = check_noether_identity(bad, lagr)
        assert not identity.holds
        xi = resolve_component(bad_theory, "xi")
        squares = kt_nilpotency_residuals(ctx)
        assert squares == {antifield_of(xi): identity.residuals[xi]}

    def test_07_first_variational_formula_on_200_random_derivations(self):
        rng = random.Random(7081)
        fields = graded_fields(2, 1)
        for i in range(200):
            dim = rng.randint(1, 2)
            rel = Parity.ODD if i % 2 else Parity.EVEN
            comps = {}
            for var in rng.sample(fields, rng.randint(1, 3)):
                poly = random_polynomial(
                    rng, fields, dim, max_order=2, max_terms=2,
                    parity=var.parity + rel,
                )
                if not poly.is_zero():
                    comps[var] = poly
            if not comps:
                continue
            vf = GeneralizedVectorField(comps)
            lagr = Density(
                random_polynomial(
                    rng, fields, dim, max_order=2, max_terms=2, parity=Parity.EVEN
                )
            )
            assert first_variational_residual(vf, lagr).holds

    def test_08_variational_derivatives_annihilate_divergences(self):
        rng = random.Random(8091)
        fields = graded_fields(2, 1)
        for _ in range(200):
            dim = rng.randint(1, 3)
            divergence = GradedPolynomial.zero()
            for lam in range(dim):
                current = random_polynomial(
                    rng, fields, dim, max_order=2, max_terms=2
                )
                divergence = divergence + total_derivative(current, lam)
            assert euler_lagrange(divergence).all_zero()

    def test_09_negative_controls_report_exact_residuals(self):
        theory = parse_theory((THEORY_DIR / "scalar_mass.nkt").read_text())
        lagr = theory.lagrangian
        xi = resolve_component(theory, "xi")
        y = resolve_component(theory, "y")

        identity = check_noether_identity(theory.operators["bad"], lagr)
        assert not identity.holds
        assert render_polynomial(identity.residuals[xi], 1) == "y"

        triviality = check_variational(theory.derivations["scaling"], lagr)
        assert not triviality.trivial
        assert render_polynomial(triviality.residuals[y], 1) == "2*y"

    def test_10_parser_roundtrip_and_crash_freedom(self):
        for name in GOLDEN:
            text = (THEORY_DIR / f"{name}.nkt").read_text()
            theory = parse_theory(text)
            assert parse_theory(render_theory(theory)) == theory

        rng = random.Random(10111)
        for i in range(500):
            theory = random_theory(rng, f"fuzz{i}")
            assert parse_theory(render_theory(theory)) == theory

        # raw bytes: diagnostics or success, never a crash
        vocabulary = [
            "theory", "dim", "field", "ghost", "parity", "even", "odd",
            "stage", "constant", "lagrangian", "operator", "role", "gauge",
            "noether", "derivation", "certificate", "witness", "sum", "d",
            "levi_civita", "y", "xi", "(", ")", "[", "]", "{", "}", ",", ";",
            ":", "=", "~", "*", "+", "-", "^", "/", "..", "0", "1", "17",
            "\n", " ", "#",
        ]
        for i in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 120)))
            try:
                parse_theory(blob.decode("latin-1"))
            except (ParseError, SemanticError):
                pass
        for i in range(300):
            soup = "".join(
                rng.choice(vocabulary) for _ in range(rng.randint(1, 80))
            )
            try:
                parse_theory(soup)
            except (ParseError, SemanticError):
                pass
