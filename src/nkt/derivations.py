"""Vertical generalized vector fields and their prolonged action.

A generalized vector field assigns to each base variable A a component
polynomial upsilon^A; its infinite prolongation acts on any polynomial as
theta(p) = sum over A, Lam of d_Lam(upsilon^A) * (d p / d A_Lam), which is a
graded derivation when the components have homogeneous relative parity.
"""

from __future__ import annotations

from .errors import JetOrderError, Record
from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    Parity,
    VariableId,
    gp_sum_of_products,
)
from .jet_calculus import (
    FIELD_INDEPENDENT_NOTE,
    TRIVIAL_TOPOLOGY_NOTE,
    TrivialityReport,
    _as_expr,
    euler_lagrange,
    is_variationally_trivial,
    partial_left,
    total_derivative_multi,
)


class GeneralizedVectorField(Record):
    """Vertical vector field: base variable -> component polynomial."""

    components: dict[VariableId, GradedPolynomial]

    __slots__ = __match_args__ = ("components",)

    def __init__(self, components) -> None:
        self._set_fields({a: p for a, p in components.items() if not p.is_zero()})

    def relative_parity(self) -> Parity | None:
        """p such that [upsilon^A] = [A] + p for all components, else None.

        The zero field reports even.  Odd relative parity is the BRST
        candidate shape; mixed shapes are not graded derivations.
        """
        seen: set[int] = set()
        for var, comp in self.components.items():
            cp = comp.parity()
            if cp is None:
                return None
            seen.add((int(cp) - int(var.parity)) % 2)
            if len(seen) > 1:
                return None
        return Parity(seen.pop()) if seen else Parity.EVEN


def prolong_apply(vf: GeneralizedVectorField, p: GradedPolynomial) -> GradedPolynomial:
    """theta(p) with theta the infinite prolongation of vf."""
    return gp_sum_of_products(
        (total_derivative_multi(vf.components[jv.var], jv.mi), partial_left(p, jv))
        for jv in p.variables()
        if jv.var in vf.components
    )


def lie_derivative_density(
    vf: GeneralizedVectorField, lagrangian: Density | GradedPolynomial
) -> GradedPolynomial:
    """The Lie derivative of a horizontal density along a vertical field."""
    return prolong_apply(vf, _as_expr(lagrangian))


def contract_with_EL(
    vf: GeneralizedVectorField, lagrangian: Density | GradedPolynomial
) -> GradedPolynomial:
    """The interior product with the variational one-form: sum of v^A E_A."""
    derivs = euler_lagrange(lagrangian, sorted(vf.components, key=lambda a: a.rank))
    return gp_sum_of_products((c, derivs[var]) for var, c in vf.components.items())


def check_variational(
    vf: GeneralizedVectorField, lagrangian: Density | GradedPolynomial
) -> TrivialityReport:
    """A symmetry is variational iff its contraction with the variational
    one-form is a total divergence.

    The verdict and residuals are decided on the Lie derivative theta(L):
    the first variational formula, theta(L) - sum Q^A E_A = D_i J^i, makes
    its variational derivatives equal those of the contraction exactly, and
    theta(L) is usually the much smaller density, with lower jet orders.  A
    component of higher order than L can take theta(L) past the jet-order
    bound where the contraction stays within it (Q^y = y_xxxx^2 on L =
    y_x^2/2 reaches order 9 against 8), so a JetOrderError there falls back
    to the contraction.  FIELD_INDEPENDENT_NOTE describes the contraction,
    which is otherwise built only when it can be free of jets: when the
    check passes and some component has a jet-free term, since only such a
    term times a jet-free term of E_A gives one.
    """
    contraction = None
    try:
        residuals = euler_lagrange(prolong_apply(vf, _as_expr(lagrangian))).nonzero()
    except JetOrderError:
        contraction = contract_with_EL(vf, lagrangian)
        residuals = euler_lagrange(contraction).nonzero()
    assumptions = [TRIVIAL_TOPOLOGY_NOTE]
    if not residuals and any(map(_has_jet_free_term, vf.components.values())):
        if contraction is None:
            contraction = contract_with_EL(vf, lagrangian)
        if not contraction.is_zero() and not contraction.variables():
            assumptions.append(FIELD_INDEPENDENT_NOTE)
    return TrivialityReport(not residuals, residuals, tuple(assumptions))


def _has_jet_free_term(p: GradedPolynomial) -> bool:
    return any(
        not any(isinstance(f, JetVariable) for f in flat) for flat in p.monomials()
    )


class NilpotencyReport(Record):
    nilpotent: bool
    odd: bool
    residuals: dict[VariableId, GradedPolynomial]
    notes: tuple[str, ...]

    __slots__ = __match_args__ = ("nilpotent", "odd", "residuals", "notes")

    def __init__(self, nilpotent, odd, residuals, notes=()) -> None:
        self._set_fields(nilpotent, odd, residuals, notes)


def check_nilpotent(vf: GeneralizedVectorField) -> NilpotencyReport:
    """Nilpotency of the prolonged derivation.

    theta is nilpotent iff theta(upsilon^A) = 0 for every component; an even
    or parity-mixed candidate cannot be nilpotent and is reported as such
    without expanding the residuals.
    """
    if vf.relative_parity() is not Parity.ODD:
        return NilpotencyReport(
            nilpotent=False,
            odd=False,
            residuals={},
            notes=("candidate is not an odd derivation: [upsilon^A] must equal [A]+1",),
        )
    residuals: dict[VariableId, GradedPolynomial] = {}
    for var in sorted(vf.components, key=lambda a: a.rank):
        r = prolong_apply(vf, vf.components[var])
        if not r.is_zero():
            residuals[var] = r
    return NilpotencyReport(not residuals, True, residuals)


class FirstVariationalReport(Record):
    residual: GradedPolynomial
    triviality: TrivialityReport

    __slots__ = __match_args__ = ("residual", "triviality")

    def __init__(self, residual, triviality) -> None:
        self._set_fields(residual, triviality)

    @property
    def holds(self) -> bool:
        return self.triviality.trivial


def first_variational_residual(
    vf: GeneralizedVectorField, lagrangian: Density | GradedPolynomial
) -> FirstVariationalReport:
    """R = Lie_theta(L) - contraction; the first variational formula says R
    is a total divergence for every vertical field."""
    residual = lie_derivative_density(vf, lagrangian) - contract_with_EL(vf, lagrangian)
    return FirstVariationalReport(residual, is_variationally_trivial(residual))
