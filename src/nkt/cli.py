"""Command line front end over theory files.

Every subcommand parses one theory file, runs a single computation or check,
and prints either a human-readable report or (with ``--json``) a JSON object
with a fixed schema::

    {"check": ..., "theory": ..., "target": ..., "pass": ...,
     "residuals": [{"where": ..., "expr": ...}, ...],
     "assumptions": [...],
     "certificates": [{"label": ..., "verified": ...}, ...],
     "elapsed_ms": ...}

Exit codes: 0 when the check passed (computations always pass when they
complete), 1 when the check ran and failed, 2 on usage, parse, or typing
errors.  Output is deterministic: identical inputs give byte-identical
reports apart from elapsed_ms.

The subcommands are described once, in COMMANDS.  The parser is built
once per process and shared by every later main() call, which parses into
a fresh namespace, so no option carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import config
from .derivations import (
    GeneralizedVectorField,
    check_nilpotent,
    check_variational,
)
from .errors import NktError, Record, SemanticError
from .graded_poly import (
    GradedPolynomial,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    render_polynomial,
)
from .jet_calculus import euler_lagrange, is_variationally_trivial, total_derivative
from .koszul_tate import (
    check_reducibility_chain,
    extend_with_operator,
    kt_apply,
    kt_context,
)
from .noether import (
    ROLE_GAUGE,
    LinearJetOperator,
    NoetherIdentityError,
    NonVariationalError,
    check_noether_identity,
    derive_gauge_from_noether,
    derive_noether_from_gauge,
    eta,
    linearize_in_ghosts,
)
from .theory_dsl import (
    Theory,
    parse_expression,
    parse_theory,
    render_operator,
    render_theory,
    resolve_component,
)


class VerificationReport(Record):
    """One subcommand's outcome in both text and JSON form.

    residuals carries (where, expr) pairs: obstruction terms for checks,
    computed results for computation commands.  body holds preformatted text
    lines; when empty the standard check rendering is used.
    """

    check: str
    theory: str
    target: str
    ok: bool
    residuals: Sequence[tuple[str, str]] = ()
    assumptions: Sequence[str] = ()
    certificates: Sequence[tuple[str, bool]] = ()
    body: Sequence[str] = ()
    verdict: str = ""

    def to_json(self, elapsed_ms: int) -> dict:
        return {
            "check": self.check,
            "theory": self.theory,
            "target": self.target,
            "pass": self.ok,
            "residuals": [{"where": w, "expr": e} for w, e in self.residuals],
            "assumptions": list(self.assumptions),
            "certificates": [
                {"label": label, "verified": v} for label, v in self.certificates
            ],
            "elapsed_ms": elapsed_ms,
        }

    def text(self) -> str:
        if self.body:
            return "\n".join(self.body)
        head = " ".join(part for part in (self.check, self.theory, self.target) if part)
        head += ": PASS" if self.ok else ": FAIL"
        if self.verdict:
            head += f" ({self.verdict})"
        lines = [head]
        for where, expr in self.residuals:
            lines.append(f"  residual {where}: {expr}")
        for note in self.assumptions:
            lines.append(f"  note: {note}")
        for label, verified in self.certificates:
            state = "verified" if verified else "not verified"
            lines.append(f"  certificate {label}: {state}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Shared lookups.


def _require_lagrangian(theory: Theory) -> GradedPolynomial:
    if theory.lagrangian is None:
        raise SemanticError(f"theory {theory.name} declares no lagrangian")
    return theory.lagrangian


def _operator(theory: Theory, name: str) -> LinearJetOperator:
    op = theory.operators.get(name)
    if op is None:
        raise SemanticError(f"no operator named {name!r} in theory {theory.name}")
    return op


def _derivation(theory: Theory, name: str) -> GeneralizedVectorField:
    vf = theory.derivations.get(name)
    if vf is None:
        raise SemanticError(f"no derivation named {name!r} in theory {theory.name}")
    return vf


def _operator_report(
    check: str, theory: Theory, target: str, name: str, op: LinearJetOperator,
    assumptions: list[str],
) -> VerificationReport:
    block, coeffs = render_operator(name, op, theory.dim)
    pairs = [("|".join(key), expr) for key, expr in coeffs]
    return VerificationReport(
        check, theory.name, target, True, pairs, assumptions, [], block
    )


def _residual_entries(
    residuals: dict, dim: int
) -> list[tuple[str, str]]:
    out = []
    for var in sorted(residuals, key=lambda v: v.rank):
        poly = residuals[var]
        if not poly.is_zero():
            out.append((var.render(), render_polynomial(poly, dim)))
    return out


# --------------------------------------------------------------------------
# Subcommand bodies.  Each returns a VerificationReport; NktError escapes to
# main, which maps it to exit code 2.


def _cmd_el(theory: Theory, args: argparse.Namespace) -> VerificationReport:
    derivs = euler_lagrange(_require_lagrangian(theory))
    pairs = []
    for var in sorted(derivs.components, key=lambda v: v.rank):
        pairs.append(
            (var.render(), render_polynomial(derivs.components[var], theory.dim))
        )
    body = [f"E_{name} = {expr}" for name, expr in pairs]
    return VerificationReport("el", theory.name, "", True, pairs, [], [], body)


def _cmd_eta(theory: Theory, args: argparse.Namespace) -> VerificationReport:
    out = eta(_operator(theory, args.op))
    return _operator_report("eta", theory, args.op, f"eta_{args.op}", out, [])


def _cmd_derive_noether(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    lag = _require_lagrangian(theory)
    vf = _derivation(theory, args.sym)
    # only the field components define the symmetry operator; ghost
    # components carry the structure functions and may be ghost-quadratic
    field_part = GeneralizedVectorField(
        {v: p for v, p in vf.components.items() if v.kind is Kind.FIELD}
    )
    if not field_part.components:
        raise SemanticError(f"derivation {args.sym!r} has no field components")
    op = linearize_in_ghosts(field_part, theory.dim)
    try:
        noether_op, report = derive_noether_from_gauge(op, lag)
    except NonVariationalError as err:
        return VerificationReport(
            "derive-noether", theory.name, args.sym, False,
            _residual_entries(err.report.residuals, theory.dim),
            list(err.report.assumptions),
        )
    return _operator_report(
        "derive-noether", theory, args.sym, f"{args.sym}_noether", noether_op,
        list(report.variational.assumptions),
    )


def _cmd_derive_gauge(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    lag = _require_lagrangian(theory)
    try:
        gauge_op, report = derive_gauge_from_noether(_operator(theory, args.op), lag)
    except NoetherIdentityError as err:
        return VerificationReport(
            "derive-gauge", theory.name, args.op, False,
            _residual_entries(err.report.residuals, theory.dim),
            ["operator does not satisfy the identity; nothing to derive"],
        )
    assumptions = list(report.variational.assumptions)
    return _operator_report(
        "derive-gauge", theory, args.op, f"{args.op}_gauge", gauge_op, assumptions
    )


def _cmd_check_noether(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    lag = _require_lagrangian(theory)
    report = check_noether_identity(_operator(theory, args.op), lag)
    return VerificationReport(
        "check-noether", theory.name, args.op, report.holds,
        _residual_entries(report.residuals, theory.dim),
    )


def _cmd_check_variational(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    lag = _require_lagrangian(theory)
    report = check_variational(_derivation(theory, args.sym), lag)
    return VerificationReport(
        "check-variational", theory.name, args.sym, report.trivial,
        _residual_entries(report.residuals, theory.dim),
        list(report.assumptions),
    )


def _cmd_check_nilpotent(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    report = check_nilpotent(_derivation(theory, args.sym))
    return VerificationReport(
        "check-nilpotent", theory.name, args.sym, report.nilpotent,
        _residual_entries(report.residuals, theory.dim),
        list(report.notes),
        verdict="nilpotent" if report.nilpotent else "",
    )


def _cmd_kt(theory: Theory, args: argparse.Namespace) -> VerificationReport:
    # every declared field component has an antifield, bounding onto its E_A;
    # then every declared operator adds a level, stage levels on request
    fields = sorted(
        (v for decl in theory.variables.values() if decl.kind is Kind.FIELD
         for v in decl.components()),
        key=lambda v: v.rank,
    )
    ctx = kt_context(_require_lagrangian(theory), theory.dim, fields)
    ops = theory.operators.values()
    levels = [op for op in ops if op.stage is None]
    if args.stages:
        stages = [op for op in ops if op.stage is not None]
        levels += sorted(stages, key=lambda op: op.stage)
    for op in levels:
        ctx = extend_with_operator(ctx, op)
    p = parse_expression(args.expr, theory)
    out = render_polynomial(kt_apply(ctx, p), theory.dim)
    return VerificationReport(
        "kt", theory.name, args.expr, True, [(args.expr, out)], [], [], [out],
    )


def _cmd_check_reducibility(
    theory: Theory, args: argparse.Namespace
) -> VerificationReport:
    lag = _require_lagrangian(theory)
    ops = theory.operators.values()
    gauge_ops = [op for op in ops if op.role == ROLE_GAUGE and op.stage is None]
    if len(gauge_ops) != 1:
        raise SemanticError(
            "check-reducibility needs exactly one gauge-role operator;"
            f" theory {theory.name} declares {len(gauge_ops)}"
        )
    stage_ops = [op for op in ops if op.stage is not None]
    labelled = {
        label: resolve_component(theory, label) for label in theory.certificates
    }
    certificates = {
        labelled[label]: cert for label, cert in theory.certificates.items()
    }
    report = check_reducibility_chain(lag, gauge_ops[0], stage_ops, certificates)
    residuals = _residual_entries(report.identity_residuals, theory.dim)
    for var in sorted(report.stage_results, key=lambda v: v.rank):
        result = report.stage_results[var]
        if not result.ok:
            residuals.append(
                (var.render(), render_polynomial(result.residual, theory.dim))
            )
    cert_states = []
    for label, var in labelled.items():
        result = report.stage_results.get(var)
        cert_states.append((label, result.ok if result is not None else False))
    return VerificationReport(
        "check-reducibility", theory.name, "", report.holds,
        residuals, list(report.assumptions) + list(report.notes), cert_states,
    )


# --------------------------------------------------------------------------
# Built-in selftest: a fast, seeded slice of the property suite.

_SELFTEST_GAUGE = """
theory abelian
dim 2
field a[mu=0..1] parity even
ghost xi parity odd
lagrangian 1/2 * (d(a[1];x0) - d(a[0];x1))^2
operator shift role gauge {
  (xi, a[mu=0..1], [mu]) : 1
}
derivation brst {
  a[mu=0..1] : d(xi;mu)
}
"""


def _selftest() -> VerificationReport:
    import random

    from .randgen import graded_fields, random_operator, random_polynomial, random_theory

    rng = random.Random(20240817)
    names: list[str] = []
    failures: list[tuple[str, str]] = []

    def run(name: str, fn) -> None:
        names.append(name)
        try:
            if not fn():
                failures.append((name, "failed"))
        except Exception as err:  # a crash is reported, not taken for a wrong answer
            failures.append((name, f"raised {type(err).__name__}: {err}"))

    def involution() -> bool:
        fields = graded_fields(2, 1)
        ghosts = [VariableId(Kind.GHOST, "g0", (), Parity.ODD)]
        for _ in range(20):
            dim = rng.randint(1, 2)
            op = random_operator(rng, ghosts, fields[:2], fields, dim, max_order=1)
            if eta(eta(op)) != op:
                return False
        return True

    def kt_squares_to_zero() -> bool:
        fields = graded_fields(2, 0)
        for _ in range(15):
            dim = rng.randint(1, 2)
            lag = random_polynomial(rng, fields, dim, max_order=1, max_terms=2)
            ctx = kt_context(lag, dim, fields)
            pool = fields + [antifield_of(f) for f in fields]
            p = random_polynomial(rng, pool, dim, max_order=1, max_terms=3)
            if not kt_apply(ctx, kt_apply(ctx, p)).is_zero():
                return False
        return True

    def el_kills_divergences() -> bool:
        fields = graded_fields(2, 1)
        for _ in range(15):
            dim = rng.randint(1, 2)
            p = random_polynomial(rng, fields, dim, max_order=1)
            div = total_derivative(p, rng.randrange(dim))
            if not is_variationally_trivial(div).trivial:
                return False
        return True

    def parser_roundtrip() -> bool:
        for _ in range(10):
            theory = random_theory(rng)
            if parse_theory(render_theory(theory)) != theory:
                return False
        return True

    def noether_pipeline() -> bool:
        theory = parse_theory(_SELFTEST_GAUGE)
        op = theory.operators["shift"]
        _, report = derive_noether_from_gauge(op, theory.lagrangian)
        if not report.holds:
            return False
        return check_nilpotent(theory.derivations["brst"]).nilpotent

    run("eta involution", involution)
    run("squared boundary vanishes", kt_squares_to_zero)
    run("variational derivative kills divergences", el_kills_divergences)
    run("parser roundtrip", parser_roundtrip)
    run("noether pipeline", noether_pipeline)

    ok = not failures
    return VerificationReport(
        "selftest", "", "", ok, failures,
        [f"{len(names)} suites"], [], [f"{name}: ok" for name in names] if ok else [],
    )


# --------------------------------------------------------------------------
# Argument parsing and dispatch.


class _Command(NamedTuple):
    """One subcommand: its help text, its body and its own options.

    A command with a body reads a theory file; selftest has none.  Every
    command takes --json after the file and before its own options.
    """

    help: str
    run: Callable[[Theory, argparse.Namespace], VerificationReport] | None
    options: tuple[tuple[str, dict], ...] = ()


_OPERATOR = ("--op", {"required": True, "help": "operator name"})
_SYMMETRY = ("--sym", {"required": True, "help": "derivation name"})

COMMANDS = {
    "el": _Command("variational derivatives of the lagrangian", _cmd_el),
    "eta": _Command("dualize a named operator", _cmd_eta, (_OPERATOR,)),
    "derive-noether": _Command(
        "identity operator from a ghost-linear symmetry", _cmd_derive_noether,
        (_SYMMETRY,),
    ),
    "derive-gauge": _Command(
        "gauge symmetry from an identity operator", _cmd_derive_gauge, (_OPERATOR,)
    ),
    "check-noether": _Command(
        "verify the identity for a noether-role operator", _cmd_check_noether,
        (_OPERATOR,),
    ),
    "check-variational": _Command(
        "is the symmetry variational?", _cmd_check_variational, (_SYMMETRY,)
    ),
    "check-nilpotent": _Command(
        "does the odd derivation square to zero?", _cmd_check_nilpotent, (_SYMMETRY,)
    ),
    "kt": _Command("apply the boundary operator to an expression", _cmd_kt, (
        ("--expr", {"required": True, "help": "expression over the theory"}),
        ("--stages", {
            "action": "store_true",
            "help": "extend the complex with stage-level operators",
        }),
    )),
    "check-reducibility": _Command(
        "verify the whole identity tower", _cmd_check_reducibility
    ),
    "selftest": _Command("run the built-in property checks", None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nkt parser with every subcommand.

    It is built on the first call and every later call returns that object,
    so a process builds one parser.  Callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="nkt",
        description="Variational calculus and symmetry checks for theory files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.run is not None:
            p.add_argument("file", help="theory file to read")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        for flag, settings in spec.options:
            p.add_argument(flag, **settings)
    return parser


def _read_text(file: str) -> str:
    """A theory file's UTF-8 text, without a leading byte-order mark.

    Line ends are translated as text-mode reading does.  A byte that is not
    UTF-8 is named by its offset in the file, the mark included.
    """
    try:
        data = Path(file).read_bytes()
    except OSError as err:
        raise SemanticError(f"cannot read {file}: {err.strerror}")
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as err:
        byte = f"byte 0x{err.object[err.start]:02x} at offset {bom + err.start}"
        raise SemanticError(f"cannot read {file}: not UTF-8 text ({byte})")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        config.reload()
        if args.command == "selftest":
            report = _selftest()
        else:
            text = _read_text(args.file)
            report = COMMANDS[args.command].run(parse_theory(text), args)
    except NktError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        output = json.dumps(report.to_json(elapsed_ms), indent=2)
    else:
        output = report.text()
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # the reader left; point stdout at the null device, so that the
        # flush at shutdown cannot raise again, and keep the verdict's code
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return 0 if report.ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
