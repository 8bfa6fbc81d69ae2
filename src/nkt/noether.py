"""Linear differential operators in the parameters and the eta transform.

A LinearJetOperator is a finite family of field-dependent coefficients
keyed by (parameter, target, multi-index).  Its role is its reading.  Read
with role "gauge" it is a parameter-linear symmetry
upsilon = sum u^{A,Xi}_r xi^r_Xi d/dA;  read with role "noether" it is the
dual density  sum Delta^{A,Lam}_r ybar_{Lam A} xi^r.  Its stage is its level
in the identity tower: None when the parameters are plain ghosts and the
targets fields, K when the parameters are stage-K ghosts and the targets
the ghosts one level down.  The eta transform intertwines the two readings
at every level: it is the unique operator with

    sum_Lam (-1)^|Lam| d_Lam(B^Lam f) = sum_Lam eta(B)^Lam d_Lam(f)

for every f, and it is an involution.  By this identity, theta(L) along the
gauge field of eta(Delta) is sum_r xi^r N_r up to a divergence, N_r the
Noether identity of Delta on E(L): Noether's second theorem.  So each
derivation below decides its input in one pass, and the theorem gives the
other half.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .derivations import GeneralizedVectorField, check_variational
from .errors import NktError, Record, SemanticError
from .graded_poly import (
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    gp_sum_of_derivatives,
    gp_sum_of_products,
)
from .jet_calculus import TRIVIAL_TOPOLOGY_NOTE, TrivialityReport
from .jet_calculus import euler_lagrange, total_derivative_multi
from .multiindex import EMPTY, MultiIndex

ROLE_GAUGE = "gauge"
ROLE_NOETHER = "noether"

CoeffKey = tuple[VariableId, VariableId, MultiIndex]  # (parameter, target, Lam)
_Key = TypeVar("_Key")
_Item = TypeVar("_Item")
# a weighted product of gp_sum_of_products: (factors, weight)
_Product = tuple[tuple[GradedPolynomial, ...], int]


class NonVariationalError(NktError):
    """A symmetry fed to the Noether construction is not variational."""

    def __init__(self, report: TrivialityReport):
        self.report = report
        names = ", ".join(v.render() for v in report.residuals)
        super().__init__(
            f"symmetry is not variational; nonzero variational derivatives: {names}"
        )


class NoetherIdentityError(SemanticError):
    """An operator fed to the inverse construction fails the Noether identity.

    report is the NoetherReport of check_noether_identity, whose residuals
    are the nonzero per-parameter expansions.
    """

    def __init__(self, report: NoetherReport):
        self.report = report
        super().__init__(
            "operator does not satisfy the Noether identity; nothing to derive"
        )


class LinearJetOperator(Record):
    """Field-coefficient linear operator family: a reading and a level."""

    dim: int
    role: str
    coeffs: dict[CoeffKey, GradedPolynomial]
    stage: int | None = None

    def __init__(self, dim, role, coeffs, stage=None) -> None:
        if role not in (ROLE_GAUGE, ROLE_NOETHER):
            raise ValueError(f"unknown operator role {role!r}")
        cleaned: dict[CoeffKey, GradedPolynomial] = {}
        for (param, target, mi), poly in coeffs.items():
            if poly.is_zero():
                continue
            found = [jv.var for jv in poly.variables() if jv.var.kind is not Kind.FIELD]
            if found:
                # name the first in rank order, not in the set's hash order
                first = min(found, key=lambda v: v.rank)
                raise SemanticError(
                    "operator coefficients may depend on field jets only;"
                    f" found {first.render()}"
                )
            cleaned[(param, target, mi)] = poly
        super().__init__(dim, role, cleaned, stage)

    def parameters(self) -> list[VariableId]:
        return sorted({k[0] for k in self.coeffs}, key=lambda v: v.rank)

    def targets(self) -> list[VariableId]:
        return sorted({k[1] for k in self.coeffs}, key=lambda v: v.rank)

    def max_order(self) -> int:
        return max((k[2].order for k in self.coeffs), default=0)

    def coefficient(
        self, param: VariableId, target: VariableId, mi: MultiIndex
    ) -> GradedPolynomial:
        return self.coeffs.get((param, target, mi), GradedPolynomial.zero())

    def sorted_keys(self) -> list[CoeffKey]:
        return sorted(
            self.coeffs, key=lambda k: (k[0].rank, k[1].rank, k[2].order, k[2].entries)
        )


def eta_family(
    coeffs: dict[CoeffKey, GradedPolynomial],
) -> dict[CoeffKey, GradedPolynomial]:
    """The eta transform of a coefficient family.

    eta(B)^Lam = sum over Sigma of (-1)^{|Sigma+Lam|} * w(Sigma, Lam)
                 * d_Sigma(B^{Sigma+Lam})
    where w is the multiset split weight; on canonical multi-index
    representatives this weight realizes the symmetrized-coefficient sum and
    makes the defining adjoint identity hold exactly.
    """
    parts: dict[CoeffKey, list[tuple[GradedPolynomial, tuple[int, ...], int]]] = {}
    for (param, target, total_mi), poly in coeffs.items():
        sign = -1 if total_mi.order & 1 else 1
        for lam, sigma, weight in total_mi.splits():
            item = (poly, sigma, sign * weight)
            parts.setdefault((param, target, lam), []).append(item)
    return _sum_nonzero(gp_sum_of_derivatives, parts)


def _sum_nonzero(
    kernel: Callable[[list[_Item]], GradedPolynomial],
    parts: dict[_Key, list[_Item]],
) -> dict[_Key, GradedPolynomial]:
    """Sum each key's items with kernel, keeping the keys whose sum is nonzero."""
    sums = {key: kernel(items) for key, items in parts.items()}
    return {key: p for key, p in sums.items() if not p.is_zero()}


def eta(op: LinearJetOperator) -> LinearJetOperator:
    """Intertwine gauge and Noether readings at the operator's level; an involution."""
    role = ROLE_NOETHER if op.role == ROLE_GAUGE else ROLE_GAUGE
    return LinearJetOperator(op.dim, role, eta_family(op.coeffs), op.stage)


# --------------------------------------------------------------------------
# Application and composition.


def apply_to_sections(
    op: LinearJetOperator, sections: dict[VariableId, GradedPolynomial]
) -> dict[VariableId, GradedPolynomial]:
    """Substitute sections for the parameters: out^A = sum (d_Xi s_r) u^{A,Xi}_r.

    The parameter jet multiplies from the left, matching the ghost-leftmost
    density convention.
    """
    parts: dict[VariableId, list[_Product]] = {}
    for (param, target, mi), poly in op.coeffs.items():
        sec = sections.get(param)
        if sec is None or sec.is_zero():
            continue
        parts.setdefault(target, []).append(((total_derivative_multi(sec, mi), poly), 1))
    return _sum_nonzero(gp_sum_of_products, parts)


def gauge_vector_field(op: LinearJetOperator) -> GeneralizedVectorField:
    """The vector field of a gauge operator, with its own parameters as ghosts."""
    sections = {
        r: GradedPolynomial.variable(JetVariable(r, EMPTY)) for r in op.parameters()
    }
    return GeneralizedVectorField(apply_to_sections(op, sections))


def _add_slot_coefficients(
    coeffs: dict[CoeffKey, GradedPolynomial],
    target: VariableId,
    poly: GradedPolynomial,
    param_of: Callable[[VariableId], VariableId | None],
    message: str,
) -> None:
    """Add the coefficient of each parameter slot of poly to coeffs.

    A slot is a jet v whose variable param_of maps to a parameter; each term
    must hold exactly one, or SemanticError(message) is raised.  The left
    partial d/dv, which pulls v leftward past the other factors with the
    graded sign, is stored under (param_of(v.var), target, v.mi).
    """
    slots = {jv for jv in poly.variables() if param_of(jv.var) is not None}
    for flat in poly.monomials():
        if sum(f in slots for f in flat) != 1:
            raise SemanticError(message)
    for jv, coeff in poly.left_partials().items():
        if jv in slots:
            coeffs[(param_of(jv.var), target, jv.mi)] = coeff


def _ghost_parameter(var: VariableId) -> VariableId | None:
    return var if var.kind is Kind.GHOST else None


def linearize_in_ghosts(vf: GeneralizedVectorField, dim: int) -> LinearJetOperator:
    """Recover the gauge operator behind a ghost-linear vector field.

    Every term of every component must contain exactly one ghost jet; that
    jet is the parameter slot, and its left partial is the coefficient.
    This inverts gauge_vector_field.
    """
    coeffs: dict[CoeffKey, GradedPolynomial] = {}
    for target, comp in vf.components.items():
        message = f"component for {target.render()} is not linear in the ghosts"
        _add_slot_coefficients(coeffs, target, comp, _ghost_parameter, message)
    return LinearJetOperator(dim, ROLE_GAUGE, coeffs)


_PROBE_NAME = "_probe"


def _probe_for(param: VariableId, i: int) -> VariableId:
    return VariableId(Kind.FIELD, f"{_PROBE_NAME}{i}", param.components, Parity.EVEN)


def compose(outer: LinearJetOperator, inner: LinearJetOperator) -> LinearJetOperator:
    """outer after inner, by applying both to formal even probe sections.

    The parameter slots are treated as even formal sections; the probe
    variables are fresh, so collecting the composite coefficients is exact.
    """
    if outer.dim != inner.dim:
        raise SemanticError("composed operators must share the base dimension")
    inner_targets = set(inner.targets())
    outer_params = set(outer.parameters())
    if inner_targets != outer_params:
        raise SemanticError(
            "target space of the inner operator must match the parameter"
            " space of the outer operator"
        )
    probes: dict[VariableId, VariableId] = {}
    for i, param in enumerate(inner.parameters()):
        probes[param] = _probe_for(param, i)
    sections = {
        param: GradedPolynomial.variable(JetVariable(probe, EMPTY))
        for param, probe in probes.items()
    }
    mid = apply_to_sections(inner, sections)
    final = apply_to_sections(outer, mid)

    coeffs: dict[CoeffKey, GradedPolynomial] = {}
    probe_vars = {p: param for param, p in probes.items()}
    for target, poly in final.items():
        message = "composite is not linear in the parameters"
        _add_slot_coefficients(coeffs, target, poly, probe_vars.get, message)
    return LinearJetOperator(outer.dim, outer.role, coeffs, outer.stage)


# --------------------------------------------------------------------------
# Noether's second theorem, both directions.


class NoetherReport(Record):
    """Per-parameter residuals of the Noether identity expansion."""

    residuals: dict[VariableId, GradedPolynomial]
    variational: TrivialityReport | None = None
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return all(r.is_zero() for r in self.residuals.values())


def noether_residuals(
    op: LinearJetOperator, lagrangian: GradedPolynomial
) -> dict[VariableId, GradedPolynomial]:
    """Per parameter r: sum over A, Lam of Delta^{A,Lam}_r d_Lam(E_A)."""
    derivs = euler_lagrange(lagrangian, op.targets())
    cache: dict[tuple[VariableId, MultiIndex], GradedPolynomial] = {}
    parts: dict[VariableId, list[_Product]] = {r: [] for r in op.parameters()}
    for (param, target, mi), poly in op.coeffs.items():
        key = (target, mi)
        if key not in cache:
            cache[key] = total_derivative_multi(derivs[target], mi)
        parts[param].append(((poly, cache[key]), 1))
    return {r: gp_sum_of_products(pairs) for r, pairs in parts.items()}


def check_noether_identity(
    op: LinearJetOperator, lagrangian: GradedPolynomial
) -> NoetherReport:
    """Does the operator annihilate the variational derivatives?"""
    if op.role != ROLE_NOETHER:
        raise SemanticError("check_noether_identity expects a noether-role operator")
    if op.stage is not None:
        # its targets are ghosts, whose E(L) is 0: the identity would hold vacuously
        raise SemanticError(
            f"operator of stage {op.stage} states a reducibility identity, not a"
            " Noether identity; check it with check-reducibility"
        )
    return NoetherReport(noether_residuals(op, lagrangian))


def derive_noether_from_gauge(
    op: LinearJetOperator, lagrangian: GradedPolynomial
) -> tuple[LinearJetOperator, NoetherReport]:
    """Variational symmetry -> Noether operator, decided by check_variational.

    With L and the coefficients free of the parameters (else SemanticError),
    E_r(theta(L)) is the identity N_r of eta(op), so a PASS reports one zero
    residual per parameter and E(L) is never built.  NonVariationalError
    carries the variational derivatives of a symmetry that fails.
    """
    if op.role != ROLE_GAUGE or op.stage is not None:
        raise SemanticError("derive_noether_from_gauge expects a gauge-role operator")
    polys = (lagrangian, *op.coeffs.values())
    read = {jv.var for p in polys for jv in p.variables()}.intersection(op.parameters())
    if read:
        name = min(read, key=lambda r: r.rank).render()
        raise SemanticError(f"the lagrangian or a coefficient reads the parameter {name}")
    variational = check_variational(gauge_vector_field(op), lagrangian)
    if not variational.trivial:
        raise NonVariationalError(variational)
    noether_op = eta(op)
    zeros = dict.fromkeys(noether_op.parameters(), GradedPolynomial.zero())
    return noether_op, NoetherReport(zeros, variational)


def derive_gauge_from_noether(
    op: LinearJetOperator, lagrangian: GradedPolynomial
) -> tuple[LinearJetOperator, NoetherReport]:
    """Noether operator -> gauge symmetry, decided by check_noether_identity.

    An operator that satisfies the identity makes eta(op) variational for
    every L.  That verdict carries the topology note alone: each term of a
    gauge field holds a parameter jet, so its contraction is never
    field-independent.  NoetherIdentityError carries the identity's report.
    """
    identity = check_noether_identity(op, lagrangian)
    if not identity.holds:
        raise NoetherIdentityError(identity)
    variational = TrivialityReport(True, {}, (TRIVIAL_TOPOLOGY_NOTE,))
    return eta(op), NoetherReport(identity.residuals, variational)


# --------------------------------------------------------------------------
# Trivial gauge symmetries from graded-antisymmetric tables.

Slot = tuple[VariableId, MultiIndex]


def trivial_gauge_symmetry(
    table: dict[tuple[VariableId, Slot, Slot], GradedPolynomial],
    lagrangian: GradedPolynomial,
    dim: int,
) -> LinearJetOperator:
    """Build the gauge symmetry generated by a graded-antisymmetric table.

    table[(r, (i, Lam), (j, Sigma))] is the coefficient with which d_Sigma E_j
    enters M^{i,Lam}_r.  Swapping the two slots must give the entry times
    -(-1)^{|i||j|}, the parities of the two fields: the field equations of
    odd fields anticommute, so two odd slots need a symmetric pair and an
    odd slot's diagonal entry is free.  That makes the resulting symmetry
    vanish on shell.
    """
    for (r, u, s), poly in table.items():
        mirror = table.get((r, s, u), GradedPolynomial.zero())
        odd = u[0].parity is Parity.ODD and s[0].parity is Parity.ODD
        if mirror != (poly if odd else -poly):
            raise SemanticError(
                "trivial-symmetry table is not graded-antisymmetric in its"
                f" (target, multi-index) slots near parameter {r.render()}"
            )
    sources = sorted({s[0] for (_, _, s) in table}, key=lambda v: v.rank)
    derivs = euler_lagrange(lagrangian, sources)
    parts: dict[CoeffKey, list[_Product]] = {}
    for (r, (i, lam), (j, sigma)), poly in table.items():
        contrib = ((poly, total_derivative_multi(derivs[j], sigma)), 1)
        parts.setdefault((r, i, lam), []).append(contrib)
    coeffs = _sum_nonzero(gp_sum_of_products, parts)
    return LinearJetOperator(dim, ROLE_GAUGE, eta_family(coeffs))
