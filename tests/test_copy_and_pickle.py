"""nkt's values survive copy, deepcopy and pickle, and come back equal.

Interned values (variables, jet variables, multi-indices, coordinates,
monomials) come back as the one shared instance, so a rebuilt polynomial
keys on the same monomials as the original, in this process or in another.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from nkt import GradedPolynomial, MultiIndex, euler_lagrange, eta, parse_theory
from nkt.graded_poly import Monomial

ROOT = Path(__file__).resolve().parent.parent
THEORIES = sorted((ROOT / "theories").glob("*.nkt"))


def _rebuilt(value: object) -> list[object]:
    return [
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ]


@pytest.mark.parametrize("path", THEORIES, ids=lambda p: p.stem)
def test_theories_and_their_results_survive_copy_and_pickle(path: Path) -> None:
    theory = parse_theory(path.read_text())
    values = [theory, *(eta(op) for op in theory.operators.values())]
    if theory.lagrangian is not None:
        values.append(euler_lagrange(theory.lagrangian))
    for value in values:
        for rebuilt in _rebuilt(value):
            assert type(rebuilt) is type(value) and rebuilt == value


def test_interned_values_come_back_as_the_same_instance() -> None:
    theory = parse_theory((ROOT / "theories" / "ym_su2.nkt").read_text())
    lag = theory.lagrangian
    interned = [MultiIndex((2, 0, 1))]
    for jv in lag.variables():
        interned += [jv, jv.var, jv.mi]
    for flat in lag.monomials():
        interned += [Monomial(flat), *flat]
    for value in interned:
        assert all(rebuilt is value for rebuilt in _rebuilt(value)), value


def test_a_polynomial_pickles_without_its_partial_maps() -> None:
    theory = parse_theory((ROOT / "theories" / "scalar_mass.nkt").read_text())
    lag = theory.lagrangian
    before = pickle.dumps(lag)
    lag.left_partials(), lag.right_partials()
    assert pickle.dumps(lag) == before
    rebuilt = pickle.loads(before)
    assert rebuilt.left_partials() == lag.left_partials()
    assert GradedPolynomial.zero() == copy.copy(GradedPolynomial.zero())


def test_a_theory_pickled_in_another_process_loads_equal() -> None:
    path = ROOT / "theories" / "ym_su2.nkt"
    code = (
        "import pickle, sys; from nkt import parse_theory; "
        "sys.stdout.buffer.write(pickle.dumps(parse_theory(open(sys.argv[1]).read())))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "2718"}
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, check=True
    )
    assert pickle.loads(out.stdout) == parse_theory(path.read_text())
