"""The Koszul-Tate side: antifield boundaries and reducibility towers.

The boundary operator is an odd right derivation on the algebra extended by
antifields and antighosts.  It sends each antifield to the matching
variational derivative and each antighost to the dual density of a declared
operator; nilpotency on the plain antighosts is exactly the Noether
identity, and weak nilpotency one level up is the reducibility of the
identity, certified by explicit boundary witnesses.
"""

from __future__ import annotations

from .errors import Record, SemanticError
from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    VariableId,
    antifield_of,
    gp_sum_of_products,
)
from .jet_calculus import euler_lagrange, partial_right, total_derivative_multi
from .multiindex import MultiIndex
from .noether import ROLE_GAUGE, ROLE_NOETHER, LinearJetOperator, eta

DECLARED_NOT_PROVEN = (
    "completeness of the identity tower (no boundary density is itself a"
    " boundary) is declared, not proven"
)


class KoszulTateContext(Record):
    """Boundary images of every antifield-sector generator."""

    dim: int
    boundaries: dict[VariableId, GradedPolynomial]


def kt_context(
    lagrangian: Density | GradedPolynomial,
    dim: int,
    fields: list[VariableId] | None = None,
) -> KoszulTateContext:
    """Antifield-level context: each antifield bounds onto its field equation."""
    derivs = euler_lagrange(lagrangian, fields)
    boundaries = {antifield_of(a): e for a, e in derivs.components.items()}
    return KoszulTateContext(dim, boundaries)


def operator_boundary(
    op: LinearJetOperator, param: VariableId
) -> GradedPolynomial:
    """The dual density of one parameter: sum of coeff * antifield jet."""
    return gp_sum_of_products(
        ((poly, GradedPolynomial.variable(JetVariable(antifield_of(target), mi))), 1)
        for (p, target, mi), poly in op.coeffs.items()
        if p == param
    )


def extend_with_operator(
    ctx: KoszulTateContext, op: LinearJetOperator
) -> KoszulTateContext:
    """Add one antighost level: each parameter's antighost bounds onto its density.

    At every level the operator is taken in its reading: a gauge operator
    is a symmetry and enters through its dual eta(op), a noether operator
    is the dual already.  The operator targets must already carry
    boundaries (the tower is built bottom-up), and the new boundary must
    shift parity the way an odd derivation does.
    """
    if op.role != ROLE_NOETHER:
        op = eta(op)
    boundaries = dict(ctx.boundaries)
    for target in op.targets():
        if antifield_of(target) not in boundaries:
            raise SemanticError(
                f"target {target.render()} has no boundary yet; extend the"
                " complex level by level"
            )
    for param in op.parameters():
        bar = antifield_of(param)
        if bar in boundaries:
            raise SemanticError(f"{bar.render()} already carries a boundary")
        image = operator_boundary(op, param)
        expected = bar.parity.flipped()
        actual = image.parity()
        if actual is not None and actual is not expected:
            raise SemanticError(
                f"boundary of {bar.render()} has parity {actual.name}, but an"
                f" odd differential needs {expected.name}; check the stage"
                " parities"
            )
        boundaries[bar] = image
    return KoszulTateContext(ctx.dim, boundaries)


def kt_apply(ctx: KoszulTateContext, p: GradedPolynomial) -> GradedPolynomial:
    """The boundary of p: right chain rule over the antifield-sector jets."""
    return gp_sum_of_products(
        ((partial_right(p, jv), total_derivative_multi(ctx.boundaries[jv.var], jv.mi)), 1)
        for jv in p.variables()
        if jv.var in ctx.boundaries
    )


def kt_nilpotency_residuals(
    ctx: KoszulTateContext,
) -> dict[VariableId, GradedPolynomial]:
    """The squared boundary on each generator; empty iff strictly nilpotent."""
    out: dict[VariableId, GradedPolynomial] = {}
    for var, image in ctx.boundaries.items():
        second = kt_apply(ctx, image)
        if not second.is_zero():
            out[var] = second
    return out


# --------------------------------------------------------------------------
# Weak (on-shell) vanishing and the reducibility chain.


class ReductionCertificate(Record):
    """Weak-zero certificate.

    A claim is certified either by coefficients against the equations (the
    claimed value equals sum of m_coeffs[(v, Sigma)] * d_Sigma(boundary of
    v's antifield)) or by an explicit boundary witness W (the claimed value
    equals the boundary of W); when both are given their expansions add.
    """

    m_coeffs: dict[tuple[VariableId, MultiIndex], GradedPolynomial] | None = None
    witness: GradedPolynomial | None = None


def certificate_expansion(
    ctx: KoszulTateContext, cert: ReductionCertificate
) -> GradedPolynomial:
    products: list[tuple[tuple[GradedPolynomial, ...], int]] = []
    if cert.witness is not None:
        products.append(((kt_apply(ctx, cert.witness),), 1))
    for (var, mi), poly in (cert.m_coeffs or {}).items():
        image = ctx.boundaries.get(antifield_of(var))
        if image is None:
            raise SemanticError(
                f"certificate references {var.render()}, which has no"
                " boundary in this complex"
            )
        products.append(((poly, total_derivative_multi(image, mi)), 1))
    return gp_sum_of_products(products)


class WeakZeroReport(Record):
    ok: bool
    residual: GradedPolynomial
    notes: tuple[str, ...] = ()


def check_weakly_zero(
    ctx: KoszulTateContext,
    p: GradedPolynomial,
    cert: ReductionCertificate | None = None,
) -> WeakZeroReport:
    """Is p zero, or exactly what the declared certificate expands to?"""
    if p.is_zero():
        return WeakZeroReport(True, p)
    if cert is None:
        return WeakZeroReport(False, p, ("nonzero and no certificate declared",))
    residual = p - certificate_expansion(ctx, cert)
    if residual.is_zero():
        return WeakZeroReport(
            True, residual, ("vanishes against the declared certificate",)
        )
    return WeakZeroReport(
        False, residual, ("declared certificate does not bound the obstruction",)
    )


class ReducibilityReport(Record):
    stages: int  # highest stage index; -1 when no stage operators exist
    identity_residuals: dict[VariableId, GradedPolynomial]
    stage_results: dict[VariableId, WeakZeroReport]
    assumptions: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return all(r.is_zero() for r in self.identity_residuals.values()) and all(
            res.ok for res in self.stage_results.values()
        )


def check_reducibility_chain(
    lagrangian: Density | GradedPolynomial,
    gauge_op: LinearJetOperator,
    stage_ops: list[LinearJetOperator],
    certificates: dict[VariableId, ReductionCertificate] | None = None,
) -> ReducibilityReport:
    """Verify the whole identity tower.

    The gauge operator is a symmetry without a stage; each stage operator
    maps its parameters one level down, in either reading, and enters as
    extend_with_operator reads it.  The tower is built from all of them
    first, and every level's squared boundary is read off it.  The plain
    antighosts must bound to zero twice (the Noether identity); every stage
    antighost's squared boundary must vanish weakly, i.e. be zero or be
    certified by a declared certificate, whose witness is expanded over the
    whole tower.
    """
    if gauge_op.role != ROLE_GAUGE or gauge_op.stage is not None:
        raise SemanticError("the base of the tower must be a gauge-role operator")
    certificates = certificates or {}
    tower = [gauge_op, *sorted(stage_ops, key=lambda o: o.stage or 0)]
    for i, (below, op) in enumerate(zip(tower, tower[1:])):
        if op.stage != i:
            raise SemanticError(
                f"stage operators must be consecutive from stage 0; got"
                f" stage {op.stage} at position {i}"
            )
        if set(op.targets()) != set(below.parameters()):
            raise SemanticError(
                f"stage {i} targets must be the parameters one level below"
            )

    ctx = kt_context(lagrangian, gauge_op.dim, gauge_op.targets())
    for op in tower:
        ctx = extend_with_operator(ctx, op)
    squares = kt_nilpotency_residuals(ctx)
    square = {
        r: squares.get(antifield_of(r), GradedPolynomial.zero())
        for op in tower for r in op.parameters()
    }
    identity_residuals = {r: square[r] for r in gauge_op.parameters()}
    stage_params = [r for op in tower[1:] for r in op.parameters()]
    stage_results = {
        r: check_weakly_zero(ctx, square[r], certificates.get(r)) for r in stage_params
    }
    certified = [r for r in stage_params if r in certificates]
    notes = tuple(f"stage certificate used for {r.render()}" for r in certified)
    return ReducibilityReport(
        len(tower) - 2, identity_residuals, stage_results, (DECLARED_NOT_PROVEN,), notes
    )
