"""Seeded generators of random algebra elements.

Shared by the property-test suite and the selftest command so both draw from
the same distributions.  Every function takes an explicit random.Random, so a
run is reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graded_poly import (
    Coordinate,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    gp_normalize,
)
from .multiindex import EMPTY, mi_enumerate
from .noether import ROLE_GAUGE, LinearJetOperator


def even_fields(count: int) -> list[VariableId]:
    return [VariableId(Kind.FIELD, f"y{i}", (), Parity.EVEN) for i in range(count)]


def graded_fields(n_even: int, n_odd: int) -> list[VariableId]:
    out = even_fields(n_even)
    out += [VariableId(Kind.FIELD, f"c{i}", (), Parity.ODD) for i in range(n_odd)]
    return out


def random_scalar(
    rng: random.Random, dim: int, *, max_terms: int = 2, max_exp: int = 2
) -> GradedPolynomial:
    """A random nonzero polynomial in the base coordinates alone."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        coords = tuple(
            Coordinate(coord)
            for coord in range(dim)
            for _ in range(rng.randint(0, max_exp))
        )
        terms[coords] = terms.get(coords, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    s = GradedPolynomial(terms)
    return s if not s.is_zero() else GradedPolynomial.one()


def jet_pool(
    fields: list[VariableId], dim: int, max_order: int
) -> list[JetVariable]:
    return [
        JetVariable(f, mi) for f in fields for mi in mi_enumerate(dim, max_order)
    ]


def random_polynomial(
    rng: random.Random,
    fields: list[VariableId],
    dim: int,
    *,
    max_order: int = 2,
    max_terms: int = 3,
    max_factors: int = 3,
    min_factors: int = 0,
    scalar_coeffs: bool = False,
    parity: Parity | None = None,
) -> GradedPolynomial:
    """Random polynomial in the field jets; optionally parity-homogeneous."""
    pool = jet_pool(fields, dim, max_order)
    raw: list[tuple[Fraction | int, list]] = []
    for _ in range(rng.randint(1, max_terms)):
        for _attempt in range(20):
            factors = [
                rng.choice(pool)
                for _ in range(rng.randint(min_factors, max_factors))
            ]
            flat_parity = Parity.EVEN
            for f in factors:
                flat_parity = flat_parity + f.parity
            if parity is None or flat_parity is parity:
                break
        else:
            continue
        if scalar_coeffs:
            for coords, q in random_scalar(rng, dim).items():
                raw.append((q, list(coords) + factors))
        else:
            raw.append((rng.choice([-2, -1, 1, 2]), factors))
    return gp_normalize(raw)


def random_operator(
    rng: random.Random,
    params: list[VariableId],
    targets: list[VariableId],
    fields: list[VariableId],
    dim: int,
    *,
    max_order: int = 2,
    keep: float = 0.6,
    coeff_order: int = 1,
    role: str = ROLE_GAUGE,
) -> LinearJetOperator:
    """Random linear operator with field-jet coefficients; never zero."""
    coeffs = {}
    for p in params:
        for t in targets:
            for mi in mi_enumerate(dim, max_order):
                if rng.random() > keep:
                    continue
                poly = random_polynomial(
                    rng, fields, dim,
                    max_order=coeff_order, max_terms=2, max_factors=2,
                )
                if not poly.is_zero():
                    coeffs[(p, t, mi)] = poly
    if not coeffs:
        coeffs[(params[0], targets[0], EMPTY)] = GradedPolynomial.one()
    return LinearJetOperator(dim, role, coeffs)


def random_theory(rng: random.Random, name: str = "fuzz") -> "Theory":
    """A random valid theory touching most declaration forms.

    Used to fuzz the text roundtrip: render_theory followed by parse_theory
    must reproduce the object exactly.
    """
    from .derivations import GeneralizedVectorField
    from .graded_poly import antifield_of
    from .koszul_tate import ReductionCertificate
    from .multiindex import MultiIndex
    from .noether import ROLE_NOETHER
    from .theory_dsl import (
        ConstantTensor,
        Theory,
        VarDecl,
        kronecker,
        levi_civita,
        minkowski,
        validate_theory,
    )

    dim = rng.randint(1, 3)
    variables: dict[str, VarDecl] = {}
    for field_name in rng.sample(["y", "z", "w", "phi", "psi"], rng.randint(1, 3)):
        if rng.random() < 0.4:
            label = rng.choice(["mu", "r", "k"])
            lo = rng.choice([0, 1])
            indices = ((label, lo, lo + rng.randint(1, 2)),)
        else:
            indices = ()
        parity = Parity.ODD if rng.random() < 0.25 else Parity.EVEN
        variables[field_name] = VarDecl(field_name, Kind.FIELD, parity, indices)
    if rng.random() < 0.75:
        variables["xi"] = VarDecl("xi", Kind.GHOST, Parity.ODD)
        if rng.random() < 0.4:
            variables["c"] = VarDecl("c", Kind.GHOST, Parity.ODD, (("q", 1, 2),))
        if rng.random() < 0.35:
            variables["e"] = VarDecl("e", Kind.GHOST, Parity.EVEN, (), 0)

    constants: dict[str, ConstantTensor] = {}
    if rng.random() < 0.5:
        constants["g"] = rng.choice(
            [levi_civita("g", rng.randint(2, 3)), kronecker("g", rng.randint(2, 3)),
             minkowski("g", dim)]
        )
    if rng.random() < 0.3:
        size = rng.randint(2, 3)
        entries = {
            (i,): Fraction(rng.randint(-3, 3))
            for i in range(1, size + 1)
            if rng.random() < 0.8
        }
        entries = {k: q for k, q in entries.items() if q}
        constants["t"] = ConstantTensor("t", ((1, size),), entries)

    field_comps = [
        v for decl in variables.values() if decl.kind is Kind.FIELD
        for v in decl.components()
    ]
    plain_ghosts = [
        v for decl in variables.values()
        if decl.kind is Kind.GHOST and decl.stage is None
        for v in decl.components()
    ]
    stage_ghosts = [
        v for decl in variables.values()
        if decl.kind is Kind.GHOST and decl.stage == 0
        for v in decl.components()
    ]

    lagrangian = None
    if rng.random() < 0.9:
        for _ in range(8):
            cand = random_polynomial(
                rng, field_comps, dim,
                max_order=1, max_terms=2, max_factors=2, min_factors=1,
                scalar_coeffs=rng.random() < 0.3, parity=Parity.EVEN,
            )
            if not cand.is_zero():
                lagrangian = cand
                break

    operators: dict[str, LinearJetOperator] = {}
    if plain_ghosts:
        if rng.random() < 0.8:
            operators["sym"] = random_operator(
                rng, plain_ghosts, field_comps, field_comps, dim,
                max_order=1, keep=0.4,
            )
        if rng.random() < 0.3:
            operators["dual"] = random_operator(
                rng, plain_ghosts, field_comps, field_comps, dim,
                max_order=1, keep=0.4, role=ROLE_NOETHER,
            )
        if stage_ghosts and rng.random() < 0.6:
            base = random_operator(
                rng, stage_ghosts, plain_ghosts, field_comps, dim,
                max_order=1, keep=0.5,
            )
            operators["lift"] = LinearJetOperator(dim, ROLE_GAUGE, base.coeffs, 0)

    derivations: dict[str, GeneralizedVectorField] = {}
    if rng.random() < 0.6:
        comps = {}
        for var in rng.sample(field_comps, min(len(field_comps), rng.randint(1, 2))):
            poly = random_polynomial(
                rng, field_comps + plain_ghosts, dim, max_order=1, max_terms=2
            )
            if not poly.is_zero():
                comps[var] = poly
        if comps:
            derivations["flow"] = GeneralizedVectorField(comps)

    certificates: dict[str, ReductionCertificate] = {}
    if "lift" in operators and rng.random() < 0.7:
        witness = None
        for _ in range(8):
            pool = field_comps + [antifield_of(v) for v in field_comps]
            cand = random_polynomial(rng, pool, dim, max_order=0, max_terms=2)
            if not cand.is_zero():
                witness = cand
                break
        m_coeffs = None
        if rng.random() < 0.5:
            poly = random_polynomial(rng, field_comps, dim, max_order=0, max_terms=1)
            if not poly.is_zero():
                m_coeffs = {(rng.choice(field_comps), MultiIndex(())): poly}
        if witness is not None or m_coeffs is not None:
            certificates[stage_ghosts[0].render()] = ReductionCertificate(
                m_coeffs, witness
            )

    theory = Theory(
        name, dim, variables, constants, lagrangian,
        operators, derivations, certificates,
    )
    validate_theory(theory)
    return theory
