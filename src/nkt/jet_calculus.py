"""Total derivatives, graded partial derivatives, Euler-Lagrange operators.

The total derivative along direction lam drops each coordinate factor x^lam
in turn and raises every jet variable by one index; it is an even derivation, so no
Koszul signs appear in its Leibniz rule.  Left and right partial derivatives
with respect to a jet variable differ by the sign picked up while the
derivative symbol passes the factors on one side or the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    VariableId,
    gp_sum,
)
from .multiindex import MultiIndex, check_jet_order

TRIVIAL_TOPOLOGY_NOTE = (
    "exactness decided by vanishing variational derivatives;"
    " base and fibers assumed contractible"
)
FIELD_INDEPENDENT_NOTE = (
    "density depends on base coordinates only;"
    " accepted as a total divergence on a contractible base"
)


def total_derivative(p: GradedPolynomial, direction: int) -> GradedPolynomial:
    """Apply the total derivative d_direction once.

    Each factor x^direction of a term is dropped once, with the term's
    coefficient; other coordinates stay.  Raising jet factor i of a
    canonical term keeps the others in place: the raised factor only moves
    right past the factors of its own variable with a smaller key, picking
    up the sign of the odd factors it passes, and the term vanishes if an
    odd raised factor lands on an equal one.  The result keeps p's
    denominator; only its numerators are added.

    The jet-order bound is checked once, on the highest raised order, so the
    error names the same order whatever order the terms come in.
    """
    terms = p.numerators()
    top = max(
        (
            len(f.mi.entries)
            for flat, _ in terms
            for f in flat
            if f.__class__ is JetVariable
        ),
        default=-1,
    )
    if top >= 0:
        check_jet_order(top + 1)
    acc: dict[tuple, int] = {}
    for flat, s in terms:
        n = len(flat)
        for i, f in enumerate(flat):
            if f.__class__ is not JetVariable:
                if f.k == direction:
                    dropped = flat[:i] + flat[i + 1 :]
                    cur = acc.get(dropped)
                    acc[dropped] = s if cur is None else cur + s
                continue
            up = f._raised.get(direction)
            if up is None:
                up = f.raised(direction)
            key = up.key
            j = i + 1
            passed = 0
            while j < n and flat[j].key < key:
                passed += flat[j].odd
                j += 1
            if up.odd:
                if j < n and flat[j] is up:
                    continue
                negative = passed & 1
            else:
                negative = 0
            raised = flat[:i] + flat[i + 1 : j] + (up,) + flat[j:]
            cur = acc.get(raised)
            if negative:
                acc[raised] = -s if cur is None else cur - s
            else:
                acc[raised] = s if cur is None else cur + s
    return GradedPolynomial.from_accumulator(acc, p.denominator())


def total_derivative_multi(p: GradedPolynomial, mi: MultiIndex) -> GradedPolynomial:
    out = p
    for direction in mi.entries:
        out = total_derivative(out, direction)
    return out


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
    expr = _as_expr(density)
    per_var: dict[VariableId, list[JetVariable]] = {}
    for jv in expr.variables():
        per_var.setdefault(jv.var, []).append(jv)
    if variables is None:
        targets = sorted(per_var, key=lambda v: v.rank)
    else:
        targets = list(variables)
    components = {}
    for var in targets:
        jets = per_var.get(var, ())
        components[var] = gp_sum(
            (_el_term(expr, jv) for jv in jets if not jv.mi.order & 1),
            (_el_term(expr, jv) for jv in jets if jv.mi.order & 1),
        )
    return VariationalDerivatives(components)


def _el_term(expr: GradedPolynomial, jv: JetVariable) -> GradedPolynomial:
    """d_Lam(dL/dA_Lam) for the jet A_Lam; its sign (-1)^|Lam| is the caller's."""
    return total_derivative_multi(partial_left(expr, jv), jv.mi)


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
