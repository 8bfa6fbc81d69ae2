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
from .noether import (
    ROLE_GAUGE,
    ROLE_NOETHER,
    ROLE_STAGE,
    LinearJetOperator,
    eta,
)

DECLARED_NOT_PROVEN = (
    "completeness of the identity tower (no boundary density is itself a"
    " boundary) is declared, not proven"
)


class KoszulTateContext(Record):
    """Boundary images of every antifield-sector generator."""

    dim: int
    boundaries: dict[VariableId, GradedPolynomial]

    __slots__ = __match_args__ = ("dim", "boundaries")

    def __init__(self, dim, boundaries) -> None:
        self._set_fields(dim, boundaries)


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
        (poly, GradedPolynomial.variable(JetVariable(antifield_of(target), mi)))
        for (p, target, mi), poly in op.coeffs.items()
        if p == param
    )


def extend_with_operator(
    ctx: KoszulTateContext, op: LinearJetOperator
) -> KoszulTateContext:
    """Add one antighost level: each parameter's antighost bounds onto its density.

    The operator targets must already carry boundaries (the tower is built
    bottom-up), and the new boundary must shift parity the way an odd
    derivation does.
    """
    if op.role not in (ROLE_NOETHER, ROLE_STAGE):
        raise SemanticError(
            "only dual-reading (noether or stage) operators extend the complex"
        )
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
        (partial_right(p, jv), total_derivative_multi(ctx.boundaries[jv.var], jv.mi))
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

    m_coeffs: dict[tuple[VariableId, MultiIndex], GradedPolynomial] | None
    witness: GradedPolynomial | None

    __slots__ = __match_args__ = ("m_coeffs", "witness")

    def __init__(self, m_coeffs=None, witness=None) -> None:
        self._set_fields(m_coeffs, witness)


def certificate_expansion(
    ctx: KoszulTateContext, cert: ReductionCertificate
) -> GradedPolynomial:
    pairs: list[tuple[GradedPolynomial, GradedPolynomial]] = []
    if cert.witness is not None:
        pairs.append((kt_apply(ctx, cert.witness), GradedPolynomial.one()))
    for (var, mi), poly in (cert.m_coeffs or {}).items():
        image = ctx.boundaries.get(antifield_of(var))
        if image is None:
            raise SemanticError(
                f"certificate references {var.render()}, which has no"
                " boundary in this complex"
            )
        pairs.append((poly, total_derivative_multi(image, mi)))
    return gp_sum_of_products(pairs)


class WeakZeroReport(Record):
    ok: bool
    residual: GradedPolynomial
    notes: tuple[str, ...]

    __slots__ = __match_args__ = ("ok", "residual", "notes")

    def __init__(self, ok, residual, notes=()) -> None:
        self._set_fields(ok, residual, notes)


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
    notes: tuple[str, ...]

    __slots__ = __match_args__ = (
        "stages", "identity_residuals", "stage_results", "assumptions", "notes"
    )

    def __init__(
        self, stages, identity_residuals, stage_results, assumptions, notes=()
    ) -> None:
        self._set_fields(stages, identity_residuals, stage_results, assumptions, notes)

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

    The gauge operator and the stage operators are given in the symmetry
    reading (each maps its parameters one level down); their duals are taken
    internally.  The plain antighosts must bound to zero twice (the Noether
    identity); every stage antighost's squared boundary must vanish weakly,
    i.e. be zero or be certified by a declared certificate.
    """
    if gauge_op.role != ROLE_GAUGE:
        raise SemanticError("the base of the tower must be a gauge-role operator")
    certificates = certificates or {}
    ordered = sorted(stage_ops, key=lambda o: o.stage or 0)
    for i, op in enumerate(ordered):
        if op.role != ROLE_STAGE or op.stage != i:
            raise SemanticError(
                f"stage operators must be consecutive from stage 0; got"
                f" {op.role} at position {i}"
            )
        below = gauge_op if i == 0 else ordered[i - 1]
        if set(op.targets()) != set(below.parameters()):
            raise SemanticError(
                f"stage {i} targets must be the parameters one level below"
            )

    noether_op = eta(gauge_op)
    ctx = kt_context(lagrangian, gauge_op.dim, gauge_op.targets())
    ctx = extend_with_operator(ctx, noether_op)
    identity_residuals = {
        r: kt_apply(ctx, ctx.boundaries[antifield_of(r)])
        for r in noether_op.parameters()
    }

    stage_results: dict[VariableId, WeakZeroReport] = {}
    notes: list[str] = []
    for op in ordered:
        ctx = extend_with_operator(ctx, eta(op))
        for r in op.parameters():
            obstruction = kt_apply(ctx, ctx.boundaries[antifield_of(r)])
            cert = certificates.get(r)
            result = check_weakly_zero(ctx, obstruction, cert)
            stage_results[r] = result
            if cert is not None:
                notes.append(f"stage certificate used for {r.render()}")
    stages = -1 if not ordered else (ordered[-1].stage or 0)
    return ReducibilityReport(
        stages,
        identity_residuals,
        stage_results,
        (DECLARED_NOT_PROVEN,),
        tuple(notes),
    )
