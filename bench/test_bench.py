"""Tests of the benchmark itself: seeded inputs and repeatable counters.

    python3 -m pytest bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metrics that are counts, not times: these must repeat exactly
COUNTER_SUFFIXES = (".calls", ".terms_in", ".zero_ratio", ".zero_operand_ratio",
                    ".coeffs_out", ".max_jet_order_seen")


def inputs_of(name: str, seed: int) -> bytes:
    workload = WORKLOADS[name]
    nk = run.import_nkt()
    return workload.fingerprint(nk, workload.generate(nk, seed))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_regenerates_identical_inputs(name):
    assert inputs_of(name, 11) == inputs_of(name, 11)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_changes_inputs(name):
    assert inputs_of(name, 11) != inputs_of(name, 12)


def traced_counters(name: str, seed: int, keep) -> dict:
    workload = WORKLOADS[name]
    _, nk, ops = run.set_up(workload, seed)
    checker = run.Checker(run.load_digests())
    metrics, _ = run.traced_run(workload, nk, [op for op in ops if keep(op)], checker, seed)
    assert checker.attempted and not checker.failed, checker.first_failure
    return {
        key: value for key, (value, _) in metrics.items()
        if key.endswith(COUNTER_SUFFIXES)
    }


@pytest.mark.parametrize("name, keep", [
    ("cli_theories", lambda op: not op.label.endswith(".ym_su2")),
    ("random_algebra", lambda op: int(op.key.split(":")[1]) % 10 == 0),
])
def test_same_seed_repeats_counters(name, keep):
    first = traced_counters(name, 5, keep)
    assert first["jet_calculus.partial_left.calls"] > 0
    assert first == traced_counters(name, 5, keep)
