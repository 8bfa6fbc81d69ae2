"""Shared helpers for building variables and jets tersely in tests."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nkt import config  # noqa: E402
from nkt.graded_poly import (  # noqa: E402
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
)
from nkt.multiindex import MultiIndex  # noqa: E402


@pytest.fixture(autouse=True)
def _jet_order_bound_follows_the_environment():
    """Re-read NKT_MAX_JET_ORDER after each test, once monkeypatch has restored it.

    The bound is read once per process, so a test that lowers it calls
    config.reload() itself; this keeps the lowered bound from outliving it.
    """
    yield
    config.reload()


def even_field(name: str, *components: int) -> VariableId:
    return VariableId(Kind.FIELD, name, tuple(components), Parity.EVEN)


def odd_field(name: str, *components: int) -> VariableId:
    return VariableId(Kind.FIELD, name, tuple(components), Parity.ODD)


def odd_ghost(name: str, *components: int) -> VariableId:
    return VariableId(Kind.GHOST, name, tuple(components), Parity.ODD)


def even_ghost(name: str, *components: int) -> VariableId:
    return VariableId(Kind.GHOST, name, tuple(components), Parity.EVEN)


def v(var: VariableId, *directions: int) -> GradedPolynomial:
    """The jet variable var_(directions) as a polynomial."""
    return GradedPolynomial.variable(JetVariable(var, MultiIndex(directions)))


def split_weight(sigma: MultiIndex, lam: MultiIndex) -> int:
    """Number of distinct ways the multiset sigma+lam splits into (sigma, lam).

    Per direction d this is C(m_d(sigma)+m_d(lam), m_d(sigma)), which is 1
    where sigma lacks d; the total is the product.  For one base direction
    it reduces to C(|sigma+lam|, |sigma|).  This is the weight with which a
    symmetric coefficient family's ordered-tuple sums collapse onto
    canonical representatives, and it is exactly the multivariate Leibniz
    count for d_(sigma+lam)(f g); MultiIndex.splits() computes it per split.
    """
    w = 1
    for d in set(sigma.entries):
        ms = sigma.entries.count(d)
        w *= math.comb(ms + lam.entries.count(d), ms)
    return w
