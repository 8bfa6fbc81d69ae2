#!/usr/bin/env python3
"""Benchmark for nkt: time to verdict, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload cli_theories --seed 1 --seconds 25 --trace 0

One process, one closed-loop client, no extra threads: each op starts when
the previous one has finished and been checked.  Every op is checked against
its known answer and against the digest of its canonical output recorded in
``bench/digests.json``; a mismatch or an unexpected exception counts as a
failed op.  Human-readable metric lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs whole rounds of ops and reports the end-to-end metrics.
The number of rounds is ``--seconds`` over the workload's ``round_seconds``
(what one round took on the seed code, on a 2-core x86-64 container), so
every commit runs the same number of ops for the same ``--seconds``, and the
tail percentile is taken at the same sample count.  Times are scaled to the
reference machine's speed (see ``calibrate``); the unscaled wall times are
printed as well.  Set-up (import, input generation and pre-parsing) is
repeated and its median reported.

``--trace 1`` runs one round, each op untraced and then traced, so its
counters repeat exactly for a seed, and reports the per-layer metrics (self
times there are unscaled); spans go to ``.bench_out/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import CLI_PAIRS, WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up runs at least SETUP_REPEATS times, and more while it has taken
# less than SETUP_SECONDS in all, so that cheap set-ups get a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 30
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
CALIBRATION_REFERENCE_S = 0.045  # calibrate() on the reference machine
CALIBRATE_EVERY_S = 1.0  # op time between two calibrations
NKT_MODULES = (
    "cli", "derivations", "graded_poly", "jet_calculus", "koszul_tate",
    "multiindex", "noether", "randgen", "theory_dsl",
)


def import_nkt() -> types.SimpleNamespace:
    """Import nkt afresh, so that every set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "nkt" or m.startswith("nkt.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"nkt.{name}") for name in NKT_MODULES}
    )


def calibrate() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel that runs no nkt code.

    The benchmark was built on a shared 2-core host whose speed drifts by 20%
    to 35% between stretches of a few minutes, as other tenants come and go.
    Each block of ops (about CALIBRATE_EVERY_S of op time) and each set-up is
    bracketed by two runs of this kernel, and its times are multiplied by
    CALIBRATION_REFERENCE_S over the mean of the two.  The drift shared by
    the kernel and nkt cancels; on ym_pipeline this cut the quartile spread
    of ten runs from about 20% to about 5%.  The kernel touches no nkt code,
    so a change to nkt moves the scaled times in the same proportion as the
    wall times.  The collector is off meanwhile, so that objects nkt keeps
    alive do not slow the kernel down.
    """
    gc.disable()
    try:
        started = perf_counter()
        total, table = Fraction(0), {}
        for i in range(12000):
            total += Fraction(i % 7 + 1, i % 5 + 1)
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + 1
        return perf_counter() - started
    finally:
        gc.enable()


def set_up(workload, seed: int):
    """Import, generate the seeded inputs, pre-parse; returns (seconds, nk, ops)."""
    started = perf_counter()
    nk = import_nkt()
    inputs = workload.generate(nk, seed)
    ops = workload.prepare(nk, inputs)
    return perf_counter() - started, nk, ops


class Checker:
    """Known answers and recorded digests; counts attempted and failed ops."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def check(self, op, result, error: BaseException | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                ok = op.verify(result)
                ok = ok and self.digests.get(op.key) == digest(op.render(result))
            except Exception as err:  # a malformed result is a failed op
                ok, error = False, err
        else:
            ok = False
        if not ok:
            self.failed += 1
            if not self.first_failure:
                why = f"{type(error).__name__}: {error}" if error else "wrong answer"
                self.first_failure = f"{op.key}: {why}"


def run_op(op, tracer=None):
    """Time one op; returns (seconds, result, unexpected exception or None)."""
    span = tracer.begin(f"op.{op.label}") if tracer else None
    started = perf_counter()
    try:
        result, error = op.run(), None
    except Exception as err:
        result, error = None, err
    elapsed = perf_counter() - started
    if tracer:
        tracer.end(span)
    return elapsed, result, error


def run_rounds(ops, checker: Checker, rounds: int) -> tuple[list[float], list[float]]:
    """Run the ops `rounds` times over, once-only ops in the first round only.

    Returns the wall time of every op run, in seconds, and the same times
    scaled by the calibration kernel run before and after each block.
    """
    wall: list[float] = []
    scaled: list[float] = []
    last = calibrate()

    def close_block() -> None:
        nonlocal last
        now = calibrate()
        factor = CALIBRATION_REFERENCE_S / ((last + now) / 2.0)
        scaled.extend(t * factor for t in wall[len(scaled):])
        last = now

    block = 0.0
    for round_no in range(rounds):
        for op in ops:
            if op.once and round_no:
                continue
            elapsed, result, error = run_op(op)
            checker.check(op, result, error)
            wall.append(elapsed)
            block += elapsed
            if block >= CALIBRATE_EVERY_S:
                close_block()
                block = 0.0
    if len(scaled) < len(wall):
        close_block()
    return wall, scaled


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return 100.0 * rank / n, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(seconds: list[float], setup_times: list[float]) -> dict:
    times_ms = [t * 1000.0 for t in seconds]
    return {
        "ops_per_s": (len(times_ms) / (sum(times_ms) / 1000.0), "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_tail": (tail(times_ms)[1], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def traced_run(workload, nk, ops, checker: Checker, seed: int):
    """One round, each op run untraced and then traced; returns (metrics, tracer).

    Running the two back to back keeps slow drifts of the machine out of the
    overhead ratio.  For ym_pipeline the pre-parsing is traced as well.
    """
    tracer = Tracer()
    if workload.name == "ym_pipeline":
        tracer.install()
        span = tracer.begin("setup.prepare")
        ops = workload.prepare(nk, workload.generate(nk, seed))
        tracer.end(span)
        tracer.uninstall()
    untraced, traced = [], []
    try:
        for op in ops:
            elapsed, result, error = run_op(op)
            untraced.append((op.label, elapsed))
            checker.check(op, result, error)
            tracer.install()
            elapsed, result, error = run_op(op, tracer)
            tracer.uninstall()
            traced.append(elapsed)
            checker.check(op, result, error)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer()
    # the per-pair CLI table, from the untraced runs; each pair runs once
    pair_ms = {label: t * 1000.0 for label, t in untraced}
    for sub, theory in CLI_PAIRS:
        label = f"cli.{sub}.{theory}"
        metrics[f"{label}.ms"] = (pair_ms.get(label, 0.0), "ms")
    untraced_s = sum(t for _, t in untraced)
    metrics["trace.overhead_ratio"] = (sum(traced) / untraced_s, "ratio")
    return metrics, tracer


def load_digests() -> dict[str, str]:
    return json.loads((BENCH / "digests.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_nkt()
    except ImportError as err:
        print(f"error: cannot import nkt from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    checker = Checker(load_digests())

    setup_times: list[float] = []
    setup_scaled: list[float] = []
    last = calibrate()
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        seconds, nk, ops = set_up(workload, args.seed)
        now = calibrate()
        setup_times.append(seconds)
        setup_scaled.append(seconds * CALIBRATION_REFERENCE_S / ((last + now) / 2.0))
        last = now
    # long-lived inputs need no more collector passes during the timed ops
    gc.collect()
    gc.freeze()

    notes = []
    if args.trace:
        metrics, tracer = traced_run(workload, nk, ops, checker, args.seed)
        tracer.write(ROOT / ".bench_out" / f"spans-{workload.name}.bin")
    else:
        rounds = max(1, round(args.seconds / workload.round_seconds))
        wall, scaled = run_rounds(ops, checker, rounds)
        metrics = end_to_end(scaled, setup_scaled)
        notes.append(f"op_ms_tail is p{tail(wall)[0]:.2f} of {len(wall)} samples")
        notes.append("unscaled wall time: " + ", ".join(
            f"{name} {value} {unit}"
            for name, (value, unit) in end_to_end(wall, setup_times).items()
        ))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"ops_failed_ratio {checker.failed / checker.attempted} ratio"
          f" ({checker.failed} of {checker.attempted})")
    for line in notes:
        print(line)
    if checker.first_failure:
        print(f"first failed op: {checker.first_failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
