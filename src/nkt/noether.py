"""Linear differential operators in the parameters and the eta transform.

A LinearJetOperator is a finite family of field-dependent coefficients
keyed by (parameter, target, multi-index).  Read with role "gauge" it is a
parameter-linear symmetry  upsilon = sum u^{A,Xi}_r xi^r_Xi d/dA;  read with
role "noether" it is the dual density  sum Delta^{A,Lam}_r ybar_{Lam A} xi^r.
The eta transform intertwines the two readings: it is the unique operator
with

    sum_Lam (-1)^|Lam| d_Lam(B^Lam f) = sum_Lam eta(B)^Lam d_Lam(f)

for every f, it is an involution, and it sends variational symmetries to
Noether operators and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, TypeVar

from .derivations import GeneralizedVectorField, check_variational
from .errors import NktError, SemanticError
from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    gp_sum_of_derivatives,
    gp_sum_of_products,
)
from .jet_calculus import TrivialityReport, euler_lagrange, total_derivative_multi
from .multiindex import EMPTY, MultiIndex, split_weight

ROLE_GAUGE = "gauge"
ROLE_NOETHER = "noether"
ROLE_STAGE = "stage"

CoeffKey = tuple[VariableId, VariableId, MultiIndex]  # (parameter, target, Lam)
_Key = TypeVar("_Key")
_Item = TypeVar("_Item")


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


@dataclass(frozen=True)
class LinearJetOperator:
    """Field-coefficient linear operator family."""

    dim: int
    role: str
    coeffs: dict[CoeffKey, GradedPolynomial]
    stage: int | None = None

    def __post_init__(self) -> None:
        if self.role not in (ROLE_GAUGE, ROLE_NOETHER, ROLE_STAGE):
            raise ValueError(f"unknown operator role {self.role!r}")
        if (self.role == ROLE_STAGE) != (self.stage is not None):
            raise ValueError("stage operators and only they carry a stage index")
        cleaned: dict[CoeffKey, GradedPolynomial] = {}
        for (param, target, mi), poly in self.coeffs.items():
            if poly.is_zero():
                continue
            found = [v for v in poly.base_variables() if v.kind is not Kind.FIELD]
            if found:
                # name the first in rank order, not in the set's hash order
                first = min(found, key=lambda v: v.rank)
                raise SemanticError(
                    "operator coefficients may depend on field jets only;"
                    f" found {first.render()}"
                )
            cleaned[(param, target, mi)] = poly
        object.__setattr__(self, "coeffs", cleaned)

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_keys(self) -> list[CoeffKey]:
        return sorted(
            self.coeffs, key=lambda k: (k[0].rank, k[1].rank, k[2].order, k[2].entries)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearJetOperator)
            and self.dim == other.dim
            and self.role == other.role
            and self.stage == other.stage
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.role, self.stage, tuple(sorted(
            (k[0].rank, k[1].rank, k[2].entries) for k in self.coeffs
        ))))


def _sub_multiindices(mi: MultiIndex) -> list[MultiIndex]:
    """All multisets contained in mi (including empty and mi itself)."""
    groups: dict[int, int] = {}
    for e in mi.entries:
        groups[e] = groups.get(e, 0) + 1
    dirs = sorted(groups)
    out: list[MultiIndex] = []
    for counts in iter_product(*(range(groups[d] + 1) for d in dirs)):
        entries: tuple[int, ...] = ()
        for d, c in zip(dirs, counts):
            entries += (d,) * c
        out.append(MultiIndex(entries))
    return out


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
        for lam in _sub_multiindices(total_mi):
            sigma_entries = list(total_mi.entries)
            for e in lam.entries:
                sigma_entries.remove(e)
            sigma = MultiIndex(tuple(sigma_entries))
            weight = split_weight(sigma, lam)
            if total_mi.order & 1:
                weight = -weight
            parts.setdefault((param, target, lam), []).append((poly, sigma.entries, weight))
    return _sum_nonzero(gp_sum_of_derivatives, parts)


def _sum_nonzero(
    kernel: Callable[[list[_Item]], GradedPolynomial],
    parts: dict[_Key, list[_Item]],
) -> dict[_Key, GradedPolynomial]:
    """Sum each key's items with kernel, keeping the keys whose sum is nonzero."""
    sums = {key: kernel(items) for key, items in parts.items()}
    return {key: p for key, p in sums.items() if not p.is_zero()}


def _flip_role(role: str) -> str:
    if role == ROLE_GAUGE:
        return ROLE_NOETHER
    if role == ROLE_NOETHER:
        return ROLE_GAUGE
    return role


def eta(op: LinearJetOperator) -> LinearJetOperator:
    """Intertwine gauge and Noether readings; an involution."""
    return LinearJetOperator(
        op.dim, _flip_role(op.role), eta_family(op.coeffs), op.stage
    )


# --------------------------------------------------------------------------
# Application and composition.


def apply_to_sections(
    op: LinearJetOperator, sections: dict[VariableId, GradedPolynomial]
) -> dict[VariableId, GradedPolynomial]:
    """Substitute sections for the parameters: out^A = sum (d_Xi s_r) u^{A,Xi}_r.

    The parameter jet multiplies from the left, matching the ghost-leftmost
    density convention.
    """
    parts: dict[VariableId, list[tuple[GradedPolynomial, GradedPolynomial]]] = {}
    for (param, target, mi), poly in op.coeffs.items():
        sec = sections.get(param)
        if sec is None or sec.is_zero():
            continue
        parts.setdefault(target, []).append((total_derivative_multi(sec, mi), poly))
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
    role = outer.role if outer.role != ROLE_STAGE else inner.role
    stage = outer.stage if outer.role == ROLE_STAGE else None
    return LinearJetOperator(
        outer.dim, role, coeffs, stage if role == ROLE_STAGE else None
    )


# --------------------------------------------------------------------------
# Noether's second theorem, both directions.


@dataclass(frozen=True)
class NoetherReport:
    """Per-parameter residuals of the Noether identity expansion."""

    residuals: dict[VariableId, GradedPolynomial]
    variational: TrivialityReport | None = None
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        ok = all(r.is_zero() for r in self.residuals.values())
        if self.variational is not None:
            ok = ok and self.variational.trivial
        return ok


def noether_residuals(
    op: LinearJetOperator, lagrangian: Density | GradedPolynomial
) -> dict[VariableId, GradedPolynomial]:
    """Per parameter r: sum over A, Lam of Delta^{A,Lam}_r d_Lam(E_A)."""
    derivs = euler_lagrange(lagrangian, op.targets())
    cache: dict[tuple[VariableId, MultiIndex], GradedPolynomial] = {}
    parts: dict[VariableId, list[tuple[GradedPolynomial, GradedPolynomial]]] = {
        r: [] for r in op.parameters()
    }
    for (param, target, mi), poly in op.coeffs.items():
        key = (target, mi)
        if key not in cache:
            cache[key] = total_derivative_multi(derivs[target], mi)
        parts[param].append((poly, cache[key]))
    return {r: gp_sum_of_products(pairs) for r, pairs in parts.items()}


def check_noether_identity(
    op: LinearJetOperator, lagrangian: Density | GradedPolynomial
) -> NoetherReport:
    """Does the operator annihilate the variational derivatives?"""
    if op.role != ROLE_NOETHER:
        raise SemanticError("check_noether_identity expects a noether-role operator")
    return NoetherReport(noether_residuals(op, lagrangian))


def derive_noether_from_gauge(
    op: LinearJetOperator, lagrangian: Density | GradedPolynomial
) -> tuple[LinearJetOperator, NoetherReport]:
    """Variational symmetry -> Noether operator, with the identity verified.

    Raises NonVariationalError when the symmetry fails the variational test;
    the error carries the offending variational derivatives.  The field
    equations are built only for a symmetry that passes it.
    """
    if op.role != ROLE_GAUGE:
        raise SemanticError("derive_noether_from_gauge expects a gauge-role operator")
    variational = check_variational(gauge_vector_field(op), lagrangian)
    if not variational.trivial:
        raise NonVariationalError(variational)
    noether_op = eta(op)
    report = NoetherReport(noether_residuals(noether_op, lagrangian), variational)
    return noether_op, report


def derive_gauge_from_noether(
    op: LinearJetOperator, lagrangian: Density | GradedPolynomial
) -> tuple[LinearJetOperator, NoetherReport]:
    """Noether operator -> gauge symmetry, with variationality verified.

    Raises NoetherIdentityError, carrying check_noether_identity's report,
    when the operator does not satisfy the identity.
    """
    identity = check_noether_identity(op, lagrangian)
    if not identity.holds:
        raise NoetherIdentityError(identity)
    gauge_op = eta(op)
    variational = check_variational(gauge_vector_field(gauge_op), lagrangian)
    notes = ()
    if eta(gauge_op) != op:
        notes = ("round-trip eta(eta(op)) failed to reproduce the operator",)
    return gauge_op, NoetherReport(identity.residuals, variational, notes)


# --------------------------------------------------------------------------
# Trivial gauge symmetries from antisymmetric tables.

Slot = tuple[VariableId, MultiIndex]


def trivial_gauge_symmetry(
    table: dict[tuple[VariableId, Slot, Slot], GradedPolynomial],
    lagrangian: Density | GradedPolynomial,
    dim: int,
) -> LinearJetOperator:
    """Build the gauge symmetry generated by an antisymmetric table.

    table[(r, (i, Lam), (j, Sigma))] is the coefficient with which d_Sigma E_j
    enters M^{i,Lam}_r; antisymmetry under swapping the two slots is required
    and makes the resulting symmetry vanish on shell.
    """
    for (r, u, s), poly in table.items():
        mirror = table.get((r, s, u))
        mirror = GradedPolynomial.zero() if mirror is None else mirror
        if mirror != -poly:
            raise SemanticError(
                "trivial-symmetry table is not antisymmetric in its"
                f" (target, multi-index) slots near parameter {r.render()}"
            )
    sources = sorted({s[0] for (_, _, s) in table}, key=lambda v: v.rank)
    derivs = euler_lagrange(lagrangian, sources)
    parts: dict[CoeffKey, list[tuple[GradedPolynomial, GradedPolynomial]]] = {}
    for (r, (i, lam), (j, sigma)), poly in table.items():
        contrib = (poly, total_derivative_multi(derivs[j], sigma))
        parts.setdefault((r, i, lam), []).append(contrib)
    coeffs = _sum_nonzero(gp_sum_of_products, parts)
    return LinearJetOperator(dim, ROLE_GAUGE, eta_family(coeffs))
