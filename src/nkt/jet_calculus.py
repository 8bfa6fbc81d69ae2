"""Total derivatives, graded partial derivatives, Euler-Lagrange operators.

The total derivative along direction lam drops each coordinate factor x^lam
in turn and raises every jet variable by one index; it is an even derivation, so no
Koszul signs appear in its Leibniz rule.  Left and right partial derivatives
with respect to a jet variable differ by the sign picked up while the
derivative symbol passes the factors on one side or the other.
"""

from __future__ import annotations

from typing import Iterator

from .errors import Record
from .graded_poly import (
    GradedPolynomial,
    JetVariable,
    VariableId,
    gp_sum_of_derivatives,
    total_derivative,
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


def total_derivative_multi(p: GradedPolynomial, mi: MultiIndex) -> GradedPolynomial:
    """Apply d_mi: each monomial's memoized image along mi, canonicalized once."""
    return gp_sum_of_derivatives(((p, mi.entries, 1),)) if mi.order else p


def partial_left(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Left graded derivative: the sign counts odd factors left of the hit."""
    return p.left_partials().get(v, GradedPolynomial.zero())


def partial_right(p: GradedPolynomial, v: JetVariable) -> GradedPolynomial:
    """Right graded derivative: the sign counts odd factors right of the hit."""
    return p.right_partials().get(v, GradedPolynomial.zero())


class VariationalDerivatives(Record):
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


def euler_lagrange(
    density: GradedPolynomial,
    variables: list[VariableId] | None = None,
) -> VariationalDerivatives:
    """E_A = sum over multi-indices present of (-1)^|Lam| d_Lam(dL/dA_Lam).

    The density L is the polynomial coefficient of the volume form.  With
    variables=None the variation runs over every base variable that
    occurs in the density; variables absent from it have E_A = 0 anyway.
    Each E_A is read from the density's Euler-Lagrange map, one pass over
    its monomials' partials (GradedPolynomial.euler_lagrange_map), when the
    map can be made within the jet-order bound in force; otherwise _stepwise
    raises the JetOrderError of the first variable asked for that passes it,
    or finds every E_A asked for within it.
    """
    found = density.euler_lagrange_map()
    if found is None:
        return _stepwise(density, variables)
    if variables is None:
        variables = sorted(found, key=lambda v: v.rank)
    return VariationalDerivatives(
        {var: found.get(var, GradedPolynomial.zero()) for var in variables}
    )


def _stepwise(
    expr: GradedPolynomial, variables: list[VariableId] | None
) -> VariationalDerivatives:
    """E_A as the sum over the left partials dL/dA_Lam of (-1)^|Lam| times
    d_Lam, the jet-order bound checked as a step-by-step d_Lam checks it
    (gp_sum_of_derivatives).  The variables are raised in the order asked
    for, and each one's partials in canonical jet order, so the order a
    JetOrderError names depends on the polynomial only, not on the order
    its terms were made in."""
    per_var: dict[VariableId, list[tuple[GradedPolynomial, tuple[int, ...], int]]] = {}
    for jv, partial in sorted(expr.left_partials().items(), key=lambda kv: kv[0].key):
        sign = -1 if jv.mi.order & 1 else 1
        per_var.setdefault(jv.var, []).append((partial, jv.mi.entries, sign))
    if variables is None:
        variables = sorted(per_var, key=lambda v: v.rank)
    return VariationalDerivatives(
        {var: gp_sum_of_derivatives(per_var.get(var, ())) for var in variables}
    )


class TrivialityReport(Record):
    trivial: bool
    residuals: dict[VariableId, GradedPolynomial]
    assumptions: tuple[str, ...]


def is_variationally_trivial(density: GradedPolynomial) -> TrivialityReport:
    """Decide whether a density is a total divergence.

    A density is d_H-exact iff all its variational derivatives vanish, up to
    the topology caveat recorded in the report's assumptions.
    """
    residuals = euler_lagrange(density).nonzero()
    assumptions = [TRIVIAL_TOPOLOGY_NOTE]
    if not density.is_zero() and not density.variables():
        assumptions.append(FIELD_INDEPENDENT_NOTE)
    return TrivialityReport(not residuals, residuals, tuple(assumptions))
