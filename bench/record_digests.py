#!/usr/bin/env python3
"""Record the reference data of bench/run.py: digests and the slowest draws.

    python3 bench/record_digests.py

Runs every input any seed can draw (all CLI choices, every coupling pair of
the Yang-Mills variants, the whole random-algebra pool), checks each result
against its known answer, and writes ``bench/digests.json``.  Record only on
code whose canonical forms are the reference: the point of the digests is
that later optimisations reproduce them byte for byte.

It also writes the ``RA_SLOWEST`` random-algebra draws that do the most
work to ``bench/ra_slowest.json``; random_algebra runs include them for every
seed.  Work is the number of terms of every polynomial an op constructs: a
count, so the choice does not depend on how busy the machine was, and it
ranks the slowest draws first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import import_nkt  # noqa: E402
from workloads import (  # noqa: E402
    PERTURBED_BRST,
    RA_POOL,
    RA_SLOWEST,
    YmVariant,
    cli_op,
    cli_universe,
    digest,
    perturbed_op,
    ra_draw,
    ra_op,
    ym_universe,
    ym_variant_text,
)


def main() -> int:
    nk = import_nkt()
    ops = [cli_op(nk, *call) for call in cli_universe()]
    ops.append(perturbed_op(nk, nk.theory_dsl.parse_theory(PERTURBED_BRST)))
    for gl, gs in ym_universe():
        theory = nk.theory_dsl.parse_theory(ym_variant_text(gl, gs))
        ops += YmVariant(nk, gl, gs, theory).ops()
    ops += [ra_op(nk, j, *ra_draw(nk, j)) for j in range(RA_POOL)]

    polynomial = nk.graded_poly.GradedPolynomial
    construct = polynomial.__init__
    terms_built = [0]

    def counting_init(self, terms=None):
        terms_built[0] += len(terms) if terms else 0
        construct(self, terms)

    digests: dict[str, str] = {}
    ra_work: dict[int, int] = {}
    for op in ops:
        terms_built[0] = 0
        polynomial.__init__ = counting_init
        try:
            result = op.run()
        finally:
            polynomial.__init__ = construct
        if not op.verify(result):
            print(f"error: {op.key} does not give its known answer", file=sys.stderr)
            return 1
        digests[op.key] = digest(op.render(result))
        if op.key.startswith("ra:"):
            ra_work[int(op.key[3:])] = terms_built[0]
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    slowest = sorted(ra_work, key=lambda j: (-ra_work[j], j))[:RA_SLOWEST]
    (BENCH / "ra_slowest.json").write_text(json.dumps(sorted(slowest)) + "\n")
    print(f"recorded {len(digests)} digests and the {len(slowest)} slowest draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
