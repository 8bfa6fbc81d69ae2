"""Span tracing of nkt's public functions, installed from outside the package.

The tracer replaces each traced function at every module namespace that binds
it (a ``from .x import f`` copies the reference, so patching the defining
module alone would miss most callers), and replaces the two
``GradedPolynomial`` operators on the class.  Every call made while the
tracer is installed records one span: name, start, end and the span that
was open when it began.  Spans stay in memory, in flat arrays, until
``write`` saves them when the run ends.  Self times and counters are derived
from the spans and from cheap looks at arguments and results; a look that
has to scan a polynomial runs inside a ``trace.counters`` span of its own so
that its cost is not charged to the caller's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Module-level public functions traced per layer (module -> function names).
TRACED_FUNCTIONS = {
    "theory_dsl": ("parse_theory", "render_theory", "parse_expression"),
    "jet_calculus": (
        "euler_lagrange",
        "partial_left",
        "partial_right",
        "total_derivative",
        "is_variationally_trivial",
    ),
    "graded_poly": ("gp_normalize", "render_polynomial"),
    "derivations": ("prolong_apply", "contract_with_EL", "check_nilpotent"),
    "noether": ("eta", "noether_residuals", "gauge_vector_field"),
    "koszul_tate": ("kt_apply", "extend_with_operator", "check_reducibility_chain"),
}
TRACED_METHODS = ("__add__", "__mul__")

COUNTER_SPAN = "trace.counters"


def traced_names() -> list[str]:
    """Every span name the tracer can record for nkt code, in report order."""
    names = []
    for module, functions in TRACED_FUNCTIONS.items():
        if module == "graded_poly":
            names += [f"graded_poly.GradedPolynomial.{m}" for m in TRACED_METHODS]
        names += [f"{module}.{fn}" for fn in functions]
    return names


class Tracer:
    """Records a span for every traced call made while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, object]] = []
        # raw counters, turned into the reported ratios by per_layer()
        self.partial_left_terms_in = 0
        self.partial_left_zero = 0
        self.mul_zero_operand = 0
        self.eta_coeffs_out = 0
        self.max_jet_order_seen = 0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters, fed from arguments and results ------------------------------

    def _after_partial_left(self, args, result) -> None:
        self.partial_left_terms_in += len(args[0].raw_terms())
        if result.is_zero():
            self.partial_left_zero += 1

    def _after_mul(self, args, result) -> None:
        if args[0].is_zero() or args[1].is_zero():
            self.mul_zero_operand += 1

    def _after_eta(self, args, result) -> None:
        self.eta_coeffs_out += len(result.coeffs)

    def _after_total_derivative(self, args, result) -> None:
        idx = self.begin(COUNTER_SPAN)
        order = result.max_jet_order()
        if order > self.max_jet_order_seen:
            self.max_jet_order_seen = order
        self.end(idx)

    # -- installation ------------------------------------------------------------

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "nkt" or name.startswith("nkt.")
        ]
        hooks = {
            "jet_calculus.partial_left": self._after_partial_left,
            "jet_calculus.total_derivative": self._after_total_derivative,
            "noether.eta": self._after_eta,
        }
        out = []
        for module, functions in TRACED_FUNCTIONS.items():
            home = sys.modules[f"nkt.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            out.append((mod, attr, original, wrapper))
        cls = sys.modules["nkt.graded_poly"].GradedPolynomial
        for method in TRACED_METHODS:
            original = cls.__dict__[method]
            after = self._after_mul if method == "__mul__" else None
            wrapper = self._wrap(f"graded_poly.GradedPolynomial.{method}", original, after)
            out.append((cls, method, original, wrapper))
        return out

    def install(self) -> None:
        """Wrap the traced functions in every loaded nkt module namespace."""
        if not self._restore:
            self._restore = self._bindings()
        for owner, attr, _, wrapper in self._restore:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._restore:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[float, int]]:
        """name -> (self time in ms, calls) over every recorded span."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            self_s[nid] += ends[i] - starts[i] - child[i]
            calls[nid] += 1
        return {
            name: (self_s[nid] * 1000.0, calls[nid])
            for nid, name in enumerate(self.names)
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self_ms and calls of every traced name, plus counters."""
        totals = self.per_name()
        out: dict[str, tuple[float, str]] = {}
        for name in traced_names():
            self_ms, calls = totals.get(name, (0.0, 0))
            out[f"{name}.self_ms"] = (self_ms, "ms")
            out[f"{name}.calls"] = (calls, "count")
        partial_calls = totals.get("jet_calculus.partial_left", (0.0, 0))[1]
        mul_calls = totals.get("graded_poly.GradedPolynomial.__mul__", (0.0, 0))[1]
        out["jet_calculus.partial_left.terms_in"] = (self.partial_left_terms_in, "count")
        out["jet_calculus.partial_left.zero_ratio"] = (
            self.partial_left_zero / partial_calls if partial_calls else 0.0, "ratio"
        )
        out["graded_poly.mul.zero_operand_ratio"] = (
            self.mul_zero_operand / mul_calls if mul_calls else 0.0, "ratio"
        )
        out["noether.eta.coeffs_out"] = (self.eta_coeffs_out, "count")
        out["multiindex.max_jet_order_seen"] = (self.max_jet_order_seen, "count")
        return out

    def write(self, path: Path) -> None:
        """Save the spans: one JSON header line, then the four arrays' bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start_s", self.starts.typecode],
                ["end_s", self.ends.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
