"""
Reducible gauge symmetries and their identity towers
====================================================

The abelian two form field has a gauge symmetry (shift by the exterior
derivative of a one form) that is itself degenerate: gradients act trivially.
The corresponding chain of operators composes to zero exactly.  A second
example closes only on shell, which the checker accepts through a declared
boundary certificate.
"""

from pathlib import Path

from nkt import ROLE_GAUGE, check_reducibility_chain, parse_theory, resolve_component

theories = Path(__file__).parent.parent / "theories"


def tower_report(filename):
    theory = parse_theory((theories / filename).read_text())
    ops = theory.operators.values()
    gauge = [op for op in ops if op.role == ROLE_GAUGE and op.stage is None][0]
    stages = sorted(
        (op for op in ops if op.stage is not None),
        key=lambda op: op.stage,
    )
    certificates = {
        resolve_component(theory, label): cert
        for label, cert in theory.certificates.items()
    }
    report = check_reducibility_chain(theory.lagrangian, gauge, stages, certificates)
    print(f"{theory.name}: stages={report.stages} holds={report.holds}")
    for var, result in report.stage_results.items():
        print("  stage level", var.render(), "ok:", result.ok)
        for note in result.notes:
            print("    ", note)
    for note in report.assumptions:
        print("  assumption:", note)
    return report


# off-shell reducible: the stage composition is identically zero
tower_report("two_form.nkt")
print()

# on-shell reducible: the composition is proportional to a field equation,
# and only the declared certificate makes the checker accept it
tower_report("on_shell_pair.nkt")
