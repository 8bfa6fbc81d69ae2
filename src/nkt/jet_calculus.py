"""Total derivatives, graded partial derivatives, Euler-Lagrange operators.

The total derivative along direction lam drops each coordinate factor x^lam
in turn and raises every jet variable by one index; it is an even derivation, so no
Koszul signs appear in its Leibniz rule.  Left and right partial derivatives
with respect to a jet variable differ by the sign picked up while the
derivative symbol passes the factors on one side or the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    VariableId,
    gp_sum_of_derivatives,
)
from .multiindex import MultiIndex

TRIVIAL_TOPOLOGY_NOTE = (
    "exactness decided by vanishing variational derivatives;"
    " base and fibers assumed contractible"
)
FIELD_INDEPENDENT_NOTE = (
    "density depends on base coordinates only;"
    " accepted as a total divergence on a contractible base"
)


def total_derivative(p: GradedPolynomial, direction: int) -> GradedPolynomial:
    """Apply the total derivative d_direction once (GradedPolynomial.derivative)."""
    return p.derivative(direction)


def total_derivative_multi(p: GradedPolynomial, mi: MultiIndex) -> GradedPolynomial:
    """Apply d_mi, one direction after another, canonicalizing once."""
    return gp_sum_of_derivatives(((p, mi.entries, 1),)) if mi.order else p


def partial_left(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Left graded derivative: the sign counts odd factors left of the hit."""
    found = p.left_partials().get(v)
    return GradedPolynomial.zero() if found is None else found


def partial_right(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Right graded derivative: the sign counts odd factors right of the hit."""
    found = p.right_partials().get(v)
    return GradedPolynomial.zero() if found is None else found


@dataclass(frozen=True)
class VariationalDerivatives:
    """Euler-Lagrange components keyed by base variable."""

    components: dict[VariableId, GradedPolynomial]

    def __getitem__(self, var: VariableId) -> GradedPolynomial:
        return self.components.get(var, GradedPolynomial.zero())

    def __iter__(self) -> Iterator[VariableId]:
        """The varied variables, like a mapping's keys; without it Python
        would iterate by indexing, which never ends."""
        return iter(self.components)

    def nonzero(self) -> dict[VariableId, GradedPolynomial]:
        return {v: e for v, e in self.components.items() if not e.is_zero()}

    def all_zero(self) -> bool:
        return not self.nonzero()


def _as_expr(density: Density | GradedPolynomial) -> GradedPolynomial:
    return density.expr if isinstance(density, Density) else density


def euler_lagrange(
    density: Density | GradedPolynomial,
    variables: list[VariableId] | None = None,
) -> VariationalDerivatives:
    """E_A = sum over multi-indices present of (-1)^|Lam| d_Lam(dL/dA_Lam).

    With variables=None the variation runs over every base variable that
    occurs in the density; variables absent from it have E_A = 0 anyway.
    """
    per_var: dict[VariableId, list[tuple[GradedPolynomial, tuple[int, ...], int]]] = {}
    for jv, partial in _as_expr(density).left_partials().items():
        sign = -1 if jv.mi.order & 1 else 1
        per_var.setdefault(jv.var, []).append((partial, jv.mi.entries, sign))
    if variables is None:
        variables = sorted(per_var, key=lambda v: v.rank)
    return VariationalDerivatives(
        {var: gp_sum_of_derivatives(per_var.get(var, ())) for var in variables}
    )


@dataclass(frozen=True)
class TrivialityReport:
    trivial: bool
    residuals: dict[VariableId, GradedPolynomial]
    assumptions: tuple[str, ...]


def is_variationally_trivial(density: Density | GradedPolynomial) -> TrivialityReport:
    """Decide whether a density is a total divergence.

    A density is d_H-exact iff all its variational derivatives vanish, up to
    the topology caveat recorded in the report's assumptions.
    """
    expr = _as_expr(density)
    derivs = euler_lagrange(expr, None)
    residuals = derivs.nonzero()
    assumptions = [TRIVIAL_TOPOLOGY_NOTE]
    if not expr.is_zero() and not expr.variables():
        assumptions.append(FIELD_INDEPENDENT_NOTE)
    return TrivialityReport(not residuals, residuals, tuple(assumptions))
