"""
Noether identities of su(2) Yang-Mills theory
=============================================

The gauge symmetry delta a^r_mu = d_mu xi^r + eps_rpq a^p_mu xi^q is loaded
from a theory file, verified to be variational, and converted into the
operator form of its Noether identity by the intertwining dual.  The dual is
an involution, so converting back recovers the symmetry exactly.
"""

from pathlib import Path

from nkt import (
    check_variational,
    derive_gauge_from_noether,
    derive_noether_from_gauge,
    gauge_vector_field,
    parse_theory,
    render_polynomial,
)

theory = parse_theory((Path(__file__).parent.parent / "theories" / "ym_su2.nkt").read_text())
op = theory.operators["gauge_sym"]
print("theory:", theory.name, " dim:", theory.dim,
      " gauge coefficients:", len(op.coeffs))

# step 1: the symmetry is variational (its contraction with the field
# equations is a total divergence)
report = check_variational(gauge_vector_field(op), theory.lagrangian)
print("variational:", report.trivial)

# step 2: dualize; the resulting operator annihilates the field equations
# identically, which is the Noether identity of the gauge symmetry
noether_op, identity = derive_noether_from_gauge(op, theory.lagrangian)
print("identity holds:", identity.holds)

# the zero-order coefficients are the structure constants contracted with
# the connection, the first-order ones are -1 on the diagonal
sample = [k for k in noether_op.sorted_keys() if k[0].components == (1,)][:4]
for param, target, mi in sample:
    coeff = noether_op.coefficient(param, target, mi)
    print(f"  Delta^({target.render()},{mi.render()})_{param.render()} =",
          render_polynomial(coeff, theory.dim))

# step 3: the dual of the dual is the original symmetry, coefficient by
# coefficient
gauge_back, _ = derive_gauge_from_noether(noether_op, theory.lagrangian)
print("round trip recovers the symmetry:", gauge_back == op)
