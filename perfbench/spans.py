"""Span tracing from the benchmark's side of the program's layer boundaries.

The tracer wraps the public functions of `cli`, `robust`, `dp`, `budget`
and `sim` under the names that the calling modules imported them by
(`cascadeshare.budget.optimize_primary` is patched apart from
`cascadeshare.cli.optimize_primary`), so no program file changes.  Each
call records a span: name, start, end and the index of its parent span.
Spans stay in memory; the caller writes them out when the run ends.

`models` is not wrapped: it is called at fine grain inside every other
layer, and wrapping it would distort what it measures.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from cascadeshare import budget, cli, dp, robust, sim

# span name -> the (module, attribute) bindings the name is called through
BINDINGS = {
    "cli.solve_system": [(cli, "solve_system")],
    "cli.emit_optimize_artifacts": [(cli, "emit_optimize_artifacts")],
    "robust.robustify_app": [(m, "robustify_app") for m in (cli, budget, sim, robust)],
    "dp.optimize_primary": [(m, "optimize_primary") for m in (cli, budget, sim, dp)],
    "dp.optimize_secondary": [(m, "optimize_secondary") for m in (cli, budget, sim, dp)],
    "dp.forward_primary": [(m, "forward_primary") for m in (cli, budget, sim, dp)],
    "dp.forward_secondary": [(m, "forward_secondary") for m in (cli, budget, sim, dp)],
    "dp.check_sharing_condition": [(m, "check_sharing_condition") for m in (cli, dp)],
    "dp.cascade_optimality_secondary": [(m, "cascade_optimality_secondary") for m in (cli, dp)],
    "budget.expected_resource": [(m, "expected_resource") for m in (cli, budget)],
    "budget.solve_lambda": [(m, "solve_lambda") for m in (cli, budget)],
    "sim.exact_grid": [(sim, "exact_grid_primary"), (sim, "exact_grid_secondary")],
    "sim.brute_force_optimum": [(m, "brute_force_optimum") for m in (cli, sim)],
    "sim.simulate": [(m, "simulate") for m in (cli, sim)],
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while active; `with tracer.op(i):` brackets one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, op=self._op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            mem = name == "sim.simulate"
            if mem:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if mem:
                    span.attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            _annotate(span, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, index: int):
        """Trace the calls of operation `index` made inside the block."""
        self._op = index
        self._patch()
        try:
            yield self
        finally:
            self._unpatch()
            self._op = -1

    def _patch(self):
        for name, places in BINDINGS.items():
            for module, attr in places:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def _unpatch(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, **s.attrs}
            for s in self.spans
        ]

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation layer figures from the recorded spans."""
        dur = [s.end - s.start for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                child[s.parent] += dur[i]
        n = max(n_ops, 1)

        def total(name, self_only=False):
            return sum(dur[i] - (child[i] if self_only else 0.0)
                       for i, s in enumerate(self.spans) if s.name == name)

        def calls(name):
            return sum(1 for s in self.spans if s.name == name)

        def inside(i, ancestor):
            p = self.spans[i].parent
            while p >= 0:
                if self.spans[p].name == ancestor:
                    return True
                p = self.spans[p].parent
            return False

        out = {}
        for name in ("dp.optimize_primary", "dp.optimize_secondary", "dp.forward_primary",
                     "dp.forward_secondary", "robust.robustify_app"):
            out[f"{name}.ms"] = 1e3 * total(name) / n
            out[f"{name}.calls"] = calls(name) / n
        for name in ("dp.check_sharing_condition", "dp.cascade_optimality_secondary",
                     "budget.solve_lambda", "budget.expected_resource", "sim.exact_grid",
                     "sim.brute_force_optimum", "sim.simulate"):
            out[f"{name}.ms"] = 1e3 * total(name) / n
        for name in ("cli.emit_optimize_artifacts", "cli.solve_system"):
            out[f"{name}.self_ms"] = 1e3 * total(name, self_only=True) / n
        lambda_solves = calls("budget.solve_lambda")
        evals = sum(1 for i, s in enumerate(self.spans)
                    if s.name == "dp.optimize_primary" and inside(i, "budget.solve_lambda"))
        out["budget.solve_lambda.evals"] = evals / lambda_solves if lambda_solves else 0.0
        out["dp.availability_patterns"] = max(
            (s.attrs["patterns"] for s in self.spans if "patterns" in s.attrs), default=0)
        out["sim.policies_evaluated"] = sum(s.attrs.get("policies", 0) for s in self.spans) / n
        sim_s = total("sim.simulate")
        trials = sum(s.attrs.get("trials", 0) for s in self.spans)
        out["sim.simulate.trials_per_s"] = trials / sim_s if sim_s > 0 else 0.0
        out["sim.simulate.peak_alloc_mb"] = max(
            (s.attrs["peak_alloc_mb"] for s in self.spans if "peak_alloc_mb" in s.attrs), default=0.0)
        return out


def _annotate(span: Span, result) -> None:
    """Counts read off a layer's return value, where the layer reports them."""
    if span.name == "dp.optimize_primary" and result.continue_mask.size:
        span.attrs["patterns"] = int(np.unique(result.continue_mask.T, axis=0).shape[0])
    elif span.name == "sim.brute_force_optimum":
        span.attrs["policies"] = int(result.get("primary_policies", 0)) + int(result.get("secondary_policies", 0))
    elif span.name == "sim.simulate":
        span.attrs["trials"] = int(result.n_trials)
