"""
Variational derivatives of a free scalar field
==============================================

Walks the smallest possible example: one even field y on a one dimensional
base, L = (1/2) y_x^2.  Everything is exact rational arithmetic on jet
polynomials; no floating point appears anywhere.
"""

from pathlib import Path

from nkt import (
    euler_lagrange,
    is_variationally_trivial,
    parse_expression,
    parse_theory,
    render_polynomial,
    resolve_component,
    total_derivative,
)

theory = parse_theory((Path(__file__).parent.parent / "theories" / "scalar.nkt").read_text())
y = resolve_component(theory, "y")

# the variational derivative of (1/2) y_x^2 is -y_xx
derivs = euler_lagrange(theory.lagrangian)
print("E_y =", render_polynomial(derivs[y], theory.dim))

# adding a total derivative to the lagrangian changes nothing: the
# variational derivative annihilates divergences exactly
current = parse_expression("y^3 + y*d(y;x)", theory)
shifted = theory.lagrangian + total_derivative(current, 0)
print("E_y after adding d_x(y^3 + y y_x):",
      render_polynomial(euler_lagrange(shifted)[y], theory.dim))

# the converse test: a density is a divergence iff all its variational
# derivatives vanish
report = is_variationally_trivial(total_derivative(current, 0))
print("d_x(current) recognized as trivial:", report.trivial)
for note in report.assumptions:
    print("  assumption:", note)

# a mass term is not a divergence, and the report shows the obstruction
report = is_variationally_trivial(parse_expression("1/2 * y^2", theory))
print("(1/2) y^2 trivial:", report.trivial)
for var, poly in report.residuals.items():
    print("  obstruction at", var.render(), "=", render_polynomial(poly, theory.dim))
