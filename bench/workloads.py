"""The three benchmark workloads, their seeded inputs and known answers.

Each workload turns a seed into inputs (``generate``), then into one round of
operations (``prepare``; for ``ym_pipeline`` this pre-parses the theories).
An ``Op`` is one verdict or one computation.  Its ``run`` is the timed part;
``verify`` holds the known answer, stated by hand and independent of the
code under test; ``render`` gives the canonical polynomials (as nkt renders
them) whose digest must match the one recorded in ``digests.json``, so that
an optimisation that changes a canonical form counts as a failed op.

Why these workloads:

- ``cli_theories``: every applicable (subcommand, bundled theory) pair
  through ``nkt.cli.main([..., "--json"])``, each call parsing its file the
  way a user pays for it.  ``ym_su2`` parses dominate the tail, the small
  theories set the median to per-call CLI overhead.
- ``ym_pipeline``: su(2) Yang-Mills variants with seeded rational couplings,
  parsed once in set-up, then run through the whole symmetry pipeline.  Large
  polynomials (180 Lagrangian terms, 48 jet variables) load the jet-calculus
  partials and the graded-polynomial sums, and the parser is bypassed.
- ``random_algebra``: thousands of small seeded draws at jet order <= 2 and
  dimension <= 3 checking the algebraic identities.  Per-call constant
  overhead dominates, so it catches a change that speeds up large sums but
  makes small ones dearer.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import types
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THEORY_DIR = "theories"


@dataclass
class Op:
    """One timed operation with its known answer and digest key."""

    key: str  # digest key; stable across seeds for the same input
    label: str  # what the per-pair table and the spans call it
    run: Callable[[], Any]
    verify: Callable[[Any], bool]
    render: Callable[[Any], list[str]]
    once: bool = False  # run in the first round only


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _render_residuals(nk: types.SimpleNamespace, residuals: dict, dim: int) -> list[str]:
    return [
        f"{var.render()}={nk.graded_poly.render_polynomial(residuals[var], dim)}"
        for var in sorted(residuals, key=lambda v: v.rank)
    ]


def _render_operator(nk: types.SimpleNamespace, op) -> list[str]:
    return [
        f"{p.render()}|{t.render()}|{mi.render()}="
        + nk.graded_poly.render_polynomial(op.coeffs[(p, t, mi)], op.dim)
        for p, t, mi in op.sorted_keys()
    ]


# ---------------------------------------------------------------------------
# cli_theories


def _ym_antifields() -> list[str]:
    fields = [f"~a[{m},{r}]" for m in range(4) for r in range(1, 4)]
    return fields + [f"~C[{q}]" for q in range(1, 4)]


# (subcommand, theory) -> (option, candidate values); the seed picks one
# candidate per pair.  Pairs whose call would be a usage or typing error
# (exit 2) are not applicable and left out.
CLI_PAIRS: dict[tuple[str, str], tuple[str, tuple[str, ...]] | None] = {
    ("el", "scalar"): None,
    ("kt", "scalar"): ("--expr", ("~y",)),
    ("el", "scalar_mass"): None,
    ("eta", "scalar_mass"): ("--op", ("bad",)),
    ("check-noether", "scalar_mass"): ("--op", ("bad",)),
    ("derive-gauge", "scalar_mass"): ("--op", ("bad",)),
    ("check-variational", "scalar_mass"): ("--sym", ("scaling",)),
    ("check-nilpotent", "scalar_mass"): ("--sym", ("scaling",)),
    ("kt", "scalar_mass"): ("--expr", ("~y", "~xi")),
    ("el", "two_form"): None,
    ("eta", "two_form"): ("--op", ("gauge_sym", "lambda_shift")),
    ("kt", "two_form"): (
        "--expr",
        ("~b01", "~b02", "~b12", "~c[0]", "~c[1]", "~c[2]", "~e"),
    ),
    ("check-reducibility", "two_form"): None,
    ("el", "on_shell_pair"): None,
    ("eta", "on_shell_pair"): ("--op", ("rot", "null_dir")),
    ("kt", "on_shell_pair"): ("--expr", ("~y1", "~y2", "~xi", "~e2")),
    ("check-reducibility", "on_shell_pair"): None,
    ("el", "ym_su2"): None,
    ("eta", "ym_su2"): ("--op", ("gauge_sym",)),
    ("derive-noether", "ym_su2"): ("--sym", ("brst",)),
    ("check-variational", "ym_su2"): ("--sym", ("brst",)),
    ("check-nilpotent", "ym_su2"): ("--sym", ("brst",)),
    ("kt", "ym_su2"): ("--expr", tuple(_ym_antifields())),
    ("check-reducibility", "ym_su2"): None,
}

# Known exit codes: these four checks fail on scalar_mass (its Lagrangian is
# a bare mass term, so neither the claimed identity nor the scaling holds);
# every other pair passes.
CLI_FAILING = {
    ("check-noether", "scalar_mass"),
    ("derive-gauge", "scalar_mass"),
    ("check-variational", "scalar_mass"),
    ("check-nilpotent", "scalar_mass"),
}

# Known residuals, worked out by hand: E_y of 1/2*(y_x)^2 is -y_xx; the
# identity operator 1 leaves E_y = y itself; y*E_y = y^2 has E = 2*y.
CLI_RESIDUALS = {
    ("el", "scalar"): [("y", "-y[;x,x]")],
    ("check-noether", "scalar_mass"): [("xi", "y")],
    ("check-variational", "scalar_mass"): [("y", "2*y")],
}


def cli_argv(sub: str, theory: str, choice: str | None) -> list[str]:
    argv = [sub, f"{THEORY_DIR}/{theory}.nkt"]
    spec = CLI_PAIRS[(sub, theory)]
    if spec is not None:
        argv += [spec[0], choice]
    if sub == "kt":
        argv.append("--stages")
    return argv + ["--json"]


def cli_key(sub: str, theory: str, choice: str | None) -> str:
    return f"cli:{sub}:{theory}:{choice or ''}"


def cli_universe() -> list[tuple[str, str, str | None]]:
    """Every (subcommand, theory, choice) the seed can pick."""
    out = []
    for (sub, theory), spec in CLI_PAIRS.items():
        for choice in spec[1] if spec is not None else (None,):
            out.append((sub, theory, choice))
    return out


def cli_op(nk, sub: str, theory: str, choice: str | None) -> Op:
    argv = cli_argv(sub, theory, choice)
    argv[1] = str(ROOT / argv[1])
    pair = (sub, theory)

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = nk.cli.main(argv)
        return code, out.getvalue()

    def report(result) -> dict:
        return json.loads(result[1])

    def verify(result) -> bool:
        code = result[0]
        if code != (1 if pair in CLI_FAILING else 0):
            return False
        rep = report(result)
        if rep["pass"] != (code == 0):
            return False
        known = CLI_RESIDUALS.get(pair)
        got = [(r["where"], r["expr"]) for r in rep["residuals"]]
        return known is None or got == known

    def render(result) -> list[str]:
        rep = report(result)
        return [f"pass={rep['pass']}"] + [
            f"{r['where']}={r['expr']}" for r in rep["residuals"]
        ]

    return Op(cli_key(sub, theory, choice), f"cli.{sub}.{theory}", run, verify, render)


class CliTheories:
    name = "cli_theories"
    round_seconds = 8.5

    def generate(self, nk, seed: int) -> list[tuple[str, str, str | None]]:
        rng = random.Random(seed)
        calls = []
        for (sub, theory), spec in CLI_PAIRS.items():
            calls.append((sub, theory, rng.choice(spec[1]) if spec else None))
        rng.shuffle(calls)
        return calls

    def fingerprint(self, nk, inputs) -> bytes:
        return json.dumps([cli_argv(*call) for call in inputs]).encode()

    def prepare(self, nk, inputs) -> list[Op]:
        return [cli_op(nk, *call) for call in inputs]


# ---------------------------------------------------------------------------
# ym_pipeline

# Couplings the seed draws from.  All are non-integer rationals of similar
# size, so every draw costs about the same exact arithmetic.
COUPLINGS = ("3/4", "-5/3", "2/7", "-7/5", "5/2")

# The coupling enters the curvature (Lagrangian) as gL and the symmetry
# (gauge operator and BRST differential) as gS.
_YM_EDITS = (
    ("+ sum(p,1..3, sum(q,1..3, eps[r,p,q]*a[m,p]*a[n,q]))", "gL"),
    ("+ sum(p,1..3, sum(q,1..3, eps[r,p,q]*a[al,p]*a[be,q]))", "gL"),
    (": sum(p,1..3, eps[r,p,q]*a[mu,p])", "gS"),
    ("d(C[r];mu) + sum(p,1..3,", "gS"),
    ("C[r=1..3] : -1/2 * sum(", "gS"),
)

# Acceptance test 05's structure constants with two off-orbit entries: the
# Jacobi identity fails in the e2 channel, so the BRST square cannot vanish.
PERTURBED_BRST = """\
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

# Its squared residuals, as stated in acceptance test 05.
PERTURBED_RESIDUALS = [
    f"a[{m},2]=-a[{m},1]*C[2]*C[3] + a[{m},2]*C[1]*C[3] - a[{m},3]*C[1]*C[2]"
    for m in range(4)
] + ["C[2]=-C[1]*C[2]*C[3]"]


def ym_variant_text(g_lagrangian: str, g_symmetry: str) -> str:
    """theories/ym_su2.nkt with the two couplings written in."""
    text = (ROOT / THEORY_DIR / "ym_su2.nkt").read_text(encoding="utf-8")
    values = {"gL": g_lagrangian, "gS": g_symmetry}
    for anchor, which in _YM_EDITS:
        if text.count(anchor) != 1:
            raise RuntimeError(f"ym_su2.nkt no longer contains {anchor!r} once")
        if anchor.startswith("C["):
            edited = anchor.replace("-1/2 *", f"-1/2 * ({values[which]}) *")
        else:
            head, tail = anchor.split("sum(", 1)
            edited = f"{head}({values[which]}) * sum({tail}"
        text = text.replace(anchor, edited)
    return text


def ym_universe() -> list[tuple[str, str]]:
    """Every (gL, gS) pair the seed can draw."""
    return [(a, b) for a in COUPLINGS for b in COUPLINGS]


class YmVariant:
    """A parsed Yang-Mills variant and its hand-stated known answers."""

    def __init__(self, nk, g_lagrangian: str, g_symmetry: str, theory) -> None:
        self.nk = nk
        self.gl, self.gs = Fraction(g_lagrangian), Fraction(g_symmetry)
        self.tag = f"ym:{g_lagrangian}:{g_symmetry}"
        self.theory = theory
        self.lagrangian = theory.lagrangian
        self.gauge = theory.operators["gauge_sym"]
        self.brst = theory.derivations["brst"]
        self._x = None
        self._residuals = None

    @property
    def matched(self) -> bool:
        return self.gl == self.gs

    def var(self, name: str):
        return self.nk.theory_dsl.resolve_component(self.theory, name)

    def poly(self, name: str):
        return self.nk.graded_poly.GradedPolynomial.variable(self.var(name))

    def mismatch_terms(self) -> dict:
        """X_q = (gS - gL) * sum over m, r, p of eps[r,p,q] * a[m,p] * E_a[m,r].

        With both couplings equal the symmetry is strictly invariant, which
        is the identity d_m E_a[m,q] = gL * sum eps[r,p,q] a[m,p] E_a[m,r];
        integrating the contraction sum (d_m C_r + gS eps a C) E by parts
        therefore leaves exactly sum_q C_q X_q up to a divergence.
        """
        if self._x is None:
            nk = self.nk
            el = nk.jet_calculus.euler_lagrange(self.lagrangian)
            eps = self.theory.constants["eps"]
            zero = nk.graded_poly.GradedPolynomial.zero
            self._x = {}
            for q in range(1, 4):
                x = zero()
                for m in range(4):
                    for r in range(1, 4):
                        for p in range(1, 4):
                            c = eps.entry((r, p, q))
                            if c:
                                term = self.poly(f"a[{m},{p}]") * el[self.var(f"a[{m},{r}]")]
                                x = x + term.scaled(c)
                self._x[q] = x.scaled(self.gs - self.gl)
        return self._x

    def nonvariational_residuals(self) -> dict:
        """Variational derivatives of sum_q C_q X_q: the expected obstruction."""
        if self._residuals is None:
            nk = self.nk
            density = nk.graded_poly.GradedPolynomial.zero()
            for q, x in self.mismatch_terms().items():
                density = density + self.poly(f"C[{q}]") * x
            self._residuals = nk.jet_calculus.is_variationally_trivial(density).residuals
        return self._residuals

    def noether_closed_form(self, noether_op) -> bool:
        """Delta^{a[l,r],[]}_C[q] = gS sum_p eps[r,p,q] a[l,p]; Delta^{a[l,q],[l]}_C[q] = -1."""
        nk = self.nk
        gp = nk.graded_poly
        eps = self.theory.constants["eps"]
        empty = nk.multiindex.EMPTY
        expected = {}
        for q in range(1, 4):
            cq = self.var(f"C[{q}]")
            for lam in range(4):
                for r in range(1, 4):
                    target = self.var(f"a[{lam},{r}]")
                    coeff = gp.GradedPolynomial.zero()
                    for p in range(1, 4):
                        c = eps.entry((r, p, q))
                        if c:
                            coeff = coeff + self.poly(f"a[{lam},{p}]").scaled(c * self.gs)
                    if not coeff.is_zero():
                        expected[(cq, target, empty)] = coeff
                    if r == q:
                        mi = nk.multiindex.MultiIndex((lam,))
                        expected[(cq, target, mi)] = gp.GradedPolynomial.one().scaled(-1)
        return noether_op.coeffs == expected

    def ops(self) -> list[Op]:
        nk, dim = self.nk, 4
        tag, lag = self.tag, self.lagrangian
        res = lambda r: _render_residuals(nk, r, dim)  # noqa: E731

        def check_variational():
            return nk.derivations.check_variational(self.brst, lag)

        def derive_noether():
            try:
                return nk.noether.derive_noether_from_gauge(self.gauge, lag)
            except nk.noether.NonVariationalError as err:
                return err

        def derive_noether_ok(result) -> bool:
            if self.matched:
                if isinstance(result, Exception):
                    return False
                noether_op, report = result
                return report.holds and self.noether_closed_form(noether_op)
            return (
                isinstance(result, nk.noether.NonVariationalError)
                and result.report.residuals == self.nonvariational_residuals()
            )

        def derive_noether_render(result) -> list[str]:
            if isinstance(result, Exception):
                return ["nonvariational"] + res(result.report.residuals)
            return _render_operator(nk, result[0])

        def derive_gauge():
            return nk.noether.derive_gauge_from_noether(nk.noether.eta(self.gauge), lag)

        def kt_square():
            ctx = nk.koszul_tate.extend_with_operator(
                nk.koszul_tate.kt_context(lag, dim), nk.noether.eta(self.gauge)
            )
            return nk.koszul_tate.kt_nilpotency_residuals(ctx)

        def kt_square_ok(result) -> bool:
            antifield_of = nk.graded_poly.antifield_of
            expected = {} if self.matched else {
                antifield_of(self.var(f"C[{q}]")): x
                for q, x in self.mismatch_terms().items()
            }
            return result == expected

        ops = [
            Op(
                f"{tag}:check_variational", "ym.check_variational", check_variational,
                lambda r: r.trivial == self.matched and (
                    self.matched or r.residuals == self.nonvariational_residuals()
                ),
                lambda r: [f"trivial={r.trivial}"] + res(r.residuals),
            ),
            Op(
                f"{tag}:derive_noether", "ym.derive_noether", derive_noether,
                derive_noether_ok, derive_noether_render,
            ),
        ]
        if self.matched:
            ops.append(Op(
                f"{tag}:derive_gauge", "ym.derive_gauge", derive_gauge,
                lambda r: r[0] == self.gauge and r[1].holds and not r[1].notes,
                lambda r: _render_operator(nk, r[0]),
            ))
        ops += [
            Op(
                f"{tag}:check_nilpotent", "ym.check_nilpotent",
                lambda: nk.derivations.check_nilpotent(self.brst),
                lambda r: r.nilpotent and not r.residuals,
                lambda r: [f"nilpotent={r.nilpotent}"],
                once=True,
            ),
            Op(
                f"{tag}:first_variational", "ym.first_variational",
                lambda: nk.derivations.first_variational_residual(self.brst, lag),
                lambda r: r.holds,
                lambda r: [nk.graded_poly.render_polynomial(r.residual, dim)],
            ),
            Op(f"{tag}:kt_square", "ym.kt_square", kt_square, kt_square_ok, res),
        ]
        return ops


def perturbed_op(nk, theory) -> Op:
    brst_bad = theory.derivations["brst_bad"]
    res = lambda r: _render_residuals(nk, r.residuals, 4)  # noqa: E731
    return Op(
        "ym:perturbed:check_nilpotent", "ym.perturbed_nilpotent",
        lambda: nk.derivations.check_nilpotent(brst_bad),
        lambda r: not r.nilpotent and res(r) == PERTURBED_RESIDUALS,
        res,
        once=True,
    )


class YmPipeline:
    name = "ym_pipeline"
    round_seconds = 4.6

    def generate(self, nk, seed: int) -> dict:
        """One variant with equal couplings, one with different couplings."""
        rng = random.Random(seed)
        g = rng.choice(COUPLINGS)
        gl, gs = rng.sample(COUPLINGS, 2)
        return {
            "variants": [(g, g, ym_variant_text(g, g)), (gl, gs, ym_variant_text(gl, gs))],
            "perturbed": PERTURBED_BRST,
        }

    def fingerprint(self, nk, inputs) -> bytes:
        parts = [f"{gl} {gs}\n{text}" for gl, gs, text in inputs["variants"]]
        return "\n".join(parts + [inputs["perturbed"]]).encode()

    def prepare(self, nk, inputs) -> list[Op]:
        ops = []
        for gl, gs, text in inputs["variants"]:
            ops += YmVariant(nk, gl, gs, nk.theory_dsl.parse_theory(text)).ops()
        ops.append(perturbed_op(nk, nk.theory_dsl.parse_theory(inputs["perturbed"])))
        return ops


# ---------------------------------------------------------------------------
# random_algebra

RA_KINDS = (
    "eta_involution",
    "eta_adjoint",
    "kt_square",
    "el_divergence",
    "first_variational",
    "theory_roundtrip",
)
RA_POOL = 6000  # draws with recorded digests; draw j has kind RA_KINDS[j % 6]
RA_PER_RUN = 1800  # draws in one run
RA_SLOWEST = 60  # the pool's most work-heavy draws, in every run (ra_slowest.json)
# Inputs are small: a draw whose rendered inputs are longer is drawn again
# from the same generator.  This keeps every op in the millisecond range the
# workload is about and the slowest draws, which set the tail, alike.
RA_MAX_CHARS = {"theory_roundtrip": 400}
RA_MAX_CHARS_DEFAULT = 150


def _ra_generate(nk, kind: str, rng: random.Random) -> tuple:
    rg = nk.randgen
    gp = nk.graded_poly
    dim = rng.randint(1, 3)
    if kind in ("eta_involution", "eta_adjoint"):
        fields = rg.graded_fields(2, 1)
        ghosts = [gp.VariableId(gp.Kind.GHOST, f"g{i}", (), gp.Parity.ODD) for i in range(2)]
        op = rg.random_operator(
            rng, ghosts[: rng.randint(1, 2)], rng.sample(fields, rng.randint(1, 2)),
            fields, dim, max_order=rng.randint(0, 2), keep=0.3,
        )
        return (op,)
    if kind == "kt_square":
        fields = rg.graded_fields(2, 0)
        lag = rg.random_polynomial(
            rng, fields, dim, max_order=2, max_terms=2, parity=gp.Parity.EVEN
        )
        pool = fields + [gp.antifield_of(f) for f in fields]
        p = rg.random_polynomial(rng, pool, dim, max_order=1, max_terms=3)
        return (lag, dim, fields, p)
    if kind == "el_divergence":
        fields = rg.graded_fields(2, 1)
        currents = [
            rg.random_polynomial(rng, fields, dim, max_order=2, max_terms=2)
            for _ in range(dim)
        ]
        return (currents,)
    if kind == "first_variational":
        dim = min(dim, 2)
        fields = rg.graded_fields(2, 1)
        relative = gp.Parity.ODD if rng.random() < 0.5 else gp.Parity.EVEN
        comps = {}
        for var in rng.sample(fields, rng.randint(1, 3)):
            comps[var] = rg.random_polynomial(
                rng, fields, dim, max_order=1, max_terms=2, max_factors=2,
                parity=var.parity + relative,
            )
        vf = nk.derivations.GeneralizedVectorField(comps)
        lag = gp.Density(rg.random_polynomial(
            rng, fields, dim, max_order=2, max_terms=2, max_factors=2,
            parity=gp.Parity.EVEN,
        ))
        return (vf, lag, dim)
    return (rg.random_theory(rng),)


def ra_draw(nk, j: int) -> tuple[str, tuple]:
    """Draw j of the pool: (kind, input objects), from its own generator."""
    rng = random.Random(1_000_003 * j + 7)
    kind = RA_KINDS[j % len(RA_KINDS)]
    limit = RA_MAX_CHARS.get(kind, RA_MAX_CHARS_DEFAULT)
    while True:
        args = _ra_generate(nk, kind, rng)
        if len("\n".join(ra_describe(nk, kind, args))) <= limit:
            return kind, args


def ra_describe(nk, kind: str, args: tuple) -> list[str]:
    """The canonical text of one draw's inputs."""
    render = nk.graded_poly.render_polynomial
    if kind in ("eta_involution", "eta_adjoint"):
        return _render_operator(nk, args[0])
    if kind == "kt_square":
        lag, dim, _, p = args
        return [render(lag, dim), render(p, dim)]
    if kind == "el_divergence":
        (currents,) = args
        return [render(c, len(currents)) for c in currents]
    if kind == "first_variational":
        vf, lag, dim = args
        return _render_residuals(nk, vf.components, dim) + [render(lag.expr, dim)]
    return [nk.theory_dsl.render_theory(args[0])]


def ra_op(nk, j: int, kind: str, args: tuple) -> Op:
    """The timed computation and known answer for draw j."""
    gp, jc, noether = nk.graded_poly, nk.jet_calculus, nk.noether
    render = gp.render_polynomial
    described: list[str] = []

    def with_inputs(outputs: list[str]) -> list[str]:
        if not described:
            described.extend(ra_describe(nk, kind, args) or [""])
        return described + outputs

    def make(run, verify, render_outputs) -> Op:
        return Op(f"ra:{j}", f"ra.{kind}", run, verify,
                  lambda r: with_inputs(render_outputs(r)))

    if kind == "eta_involution":
        (op,) = args
        return make(
            lambda: (noether.eta(op), noether.eta(noether.eta(op))),
            lambda r: r[1] == op,
            lambda r: _render_operator(nk, r[0]),
        )
    if kind == "eta_adjoint":
        (op,) = args
        probe = gp.GradedPolynomial.variable(
            gp.VariableId(gp.Kind.FIELD, "zprobe", (), gp.Parity.EVEN)
        )

        def adjoint():
            # per channel: sum (-1)^|L| d_L(B^L z) against sum eta(B)^L d_L(z)
            dual = noether.eta(op)
            channels = {(p, t) for (p, t, _) in op.coeffs}
            channels |= {(p, t) for (p, t, _) in dual.coeffs}
            order = max(op.max_order(), dual.max_order())
            sides = []
            for param, target in sorted(channels, key=lambda c: (c[0].rank, c[1].rank)):
                lhs = gp.GradedPolynomial.zero()
                rhs = gp.GradedPolynomial.zero()
                for mi in nk.multiindex.mi_enumerate(op.dim, order):
                    b = op.coefficient(param, target, mi)
                    if not b.is_zero():
                        term = jc.total_derivative_multi(b * probe, mi)
                        lhs = lhs - term if mi.order & 1 else lhs + term
                    h = dual.coefficient(param, target, mi)
                    if not h.is_zero():
                        rhs = rhs + h * jc.total_derivative_multi(probe, mi)
                sides.append((lhs, rhs))
            return sides

        return make(
            adjoint,
            lambda r: all(lhs == rhs for lhs, rhs in r),
            lambda r: [render(lhs, op.dim) for lhs, _ in r],
        )
    if kind == "kt_square":
        lag, dim, fields, p = args
        kt = nk.koszul_tate

        def square():
            ctx = kt.kt_context(lag, dim, fields)
            once = kt.kt_apply(ctx, p)
            return once, kt.kt_apply(ctx, once)

        return make(square, lambda r: r[1].is_zero(), lambda r: [render(r[0], dim)])
    if kind == "el_divergence":
        (currents,) = args

        def divergence():
            div = gp.GradedPolynomial.zero()
            for lam, current in enumerate(currents):
                div = div + jc.total_derivative(current, lam)
            return div, jc.euler_lagrange(div)

        return make(
            divergence,
            lambda r: r[1].all_zero(),
            lambda r: [render(r[0], len(currents))],
        )
    if kind == "first_variational":
        vf, lag, dim = args
        return make(
            lambda: nk.derivations.first_variational_residual(vf, lag),
            lambda r: r.holds,
            lambda r: [render(r.residual, dim)],
        )
    (theory,) = args
    dsl = nk.theory_dsl

    def roundtrip():
        text = dsl.render_theory(theory)
        return text, dsl.parse_theory(text)

    return make(roundtrip, lambda r: r[1] == theory, lambda r: [])


class RandomAlgebra:
    name = "random_algebra"
    round_seconds = 1.5

    def generate(self, nk, seed: int) -> list[tuple[int, str, tuple]]:
        """The pool's slowest draws, then a seeded sample of the rest, in seeded order.

        The slowest draws set the tail; having all of them in every run makes
        the tail compare the same inputs across seeds.  The sample takes the
        same number of draws of each kind.
        """
        rng = random.Random(seed)
        slowest = json.loads((BENCH / "ra_slowest.json").read_text())
        kinds = len(RA_KINDS)
        picks = list(slowest)
        taken = set(slowest)
        for k in range(kinds):
            rest = [j for j in range(k, RA_POOL, kinds) if j not in taken]
            picks += rng.sample(rest, (RA_PER_RUN - len(slowest)) // kinds)
        rng.shuffle(picks)
        return [(j, *ra_draw(nk, j)) for j in picks]

    def fingerprint(self, nk, inputs) -> bytes:
        lines = []
        for j, kind, args in inputs:
            lines += [f"{j} {kind}"] + ra_describe(nk, kind, args)
        return "\n".join(lines).encode()

    def prepare(self, nk, inputs) -> list[Op]:
        return [ra_op(nk, j, kind, args) for j, kind, args in inputs]


WORKLOADS = {wl.name: wl for wl in (CliTheories(), YmPipeline(), RandomAlgebra())}
