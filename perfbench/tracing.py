"""Per-layer tracing from outside the package.

The traced run replaces each public function at the module that calls it
with a wrapper that records a span (name, parent span, duration) and, for
some layers, counts taken from the call's arguments and result. Spans are
aggregated in memory by (parent, name) as they close, because the desk
workload makes millions of calls, and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter


def _count_pairs(counts, args, result):
    counts["graph.pairs"] += len(result.pairs)


def _count_greedy(counts, args, result):
    heads = {req.id: req.heads for req in args[0].requests}
    counts["heuristics.unplaced"] += len(result.unplaced)
    for r, _nf, k in result.placement.x:
        counts["heuristics.hosted"] += 1
        counts["heuristics.offhead"] += k not in heads[r]


def _count_status(counts, args, result):
    counts[f"exact.status.{result.status}"] += 1


def _count_feasible(counts, args, result):
    counts["evaluation.check_constraints.feasible"] += not result


def _count_enum(counts, args, result):
    counts["perfbench.enum_checks"] += result[2]


# (module, attribute, span name, counting hook): each entry wraps a function
# where its caller looks it up. The `perfbench.*` spans are the benchmark's
# own code, so that spans account for the whole timed phase.
PATCHES = (
    ("pccplace.cli", "main", "cli.main", None),
    ("pccplace.bench", "run_sweep", "bench.run_sweep", None),
    ("pccplace.bench", "emit_results", "bench.emit_results", None),
    ("pccplace.bench", "generate_instance", "scenario.generate_instance", None),
    ("pccplace.bench", "shortest_paths", "graph.shortest_paths", _count_pairs),
    ("pccplace.bench", "ppcc", "heuristics.ppcc", _count_greedy),
    ("pccplace.bench", "spba", "heuristics.spba", _count_greedy),
    ("pccplace.bench", "agw", "heuristics.agw", None),
    ("pccplace.heuristics", "evaluate_cost", "evaluation.evaluate_cost", None),
    ("pccplace.heuristics", "build_placement", "model.build_placement", None),
    ("pccplace.exact", "lower_bound", "exact.lower_bound", None),
    ("pccplace.exact", "evaluate_cost", "evaluation.evaluate_cost", None),
    ("pccplace.exact", "build_placement_per_pair",
     "model.build_placement_per_pair", None),
    ("desk", "generate_instance", "scenario.generate_instance", None),
    ("desk", "shortest_paths", "graph.shortest_paths", _count_pairs),
    ("desk", "solve_exact", "exact.solve_exact", _count_status),
    ("desk", "build_placement_per_pair", "model.build_placement_per_pair", None),
    ("desk", "check_constraints", "evaluation.check_constraints", _count_feasible),
    ("desk", "evaluate_cost", "evaluation.evaluate_cost", None),
    ("desk", "build_corpus", "perfbench.build_corpus", None),
    ("desk", "reference", "perfbench.reference", None),
    ("desk", "enumerate_full", "perfbench.enumerate_full", _count_enum),
    ("desk", "enumerate_per_chain", "perfbench.enumerate_per_chain", None),
    ("sweeps", "run_call", "perfbench.run_call", None),
)

# Per-layer metrics in report order: name -> unit. Counts and self times are
# per operation (a sweep trial or an exact solve), so that runs which fit a
# different number of operations into their time stay comparable.
LAYER_METRICS = {
    "scenario.generate_instance.calls": "count/op",
    "scenario.generate_instance.self_s": "s/op",
    "graph.shortest_paths.calls": "count/op",
    "graph.shortest_paths.self_s": "s/op",
    "graph.pairs": "count/op",
    "heuristics.ppcc.self_s": "s/op",
    "heuristics.spba.self_s": "s/op",
    "heuristics.agw.self_s": "s/op",
    "heuristics.unplaced": "count/op",
    "heuristics.offhead_frac": "ratio",
    "exact.solve_exact.calls": "count/op",
    "exact.solve_exact.self_s": "s/op",
    "exact.lower_bound.calls": "count/op",
    "exact.lower_bound.self_s": "s/op",
    "exact.status.optimal": "count/op",
    "exact.status.infeasible": "count/op",
    "exact.status.budget_exceeded": "count/op",
    "evaluation.evaluate_cost.calls": "count/op",
    "evaluation.evaluate_cost.self_s": "s/op",
    "evaluation.check_constraints.calls": "count/op",
    "evaluation.check_constraints.self_s": "s/op",
    "evaluation.check_constraints.feasible_frac": "ratio",
    "model.build_placement.self_s": "s/op",
    "model.build_placement_per_pair.calls": "count/op",
    "model.build_placement_per_pair.self_s": "s/op",
    "bench.run_sweep.self_s": "s/op",
    "bench.emit_results.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "perfbench.self_s": "s/op",
    "perfbench.enum_checks": "count/op",
    "perfbench.enum_checks_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.covered_frac": "ratio",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, hook in self.patches:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                rec = spans.get((parent, name))
                if rec is None:
                    rec = spans[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def by_name(self) -> dict[str, list]:
        """Spans summed over parents: name -> [calls, total_s, self_s]."""
        out: dict[str, list] = {}
        for (_parent, name), (calls, total, self_s) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def layer_metrics(self, ops: int, wall_s: float, ops_per_s: float) -> dict[str, float]:
        """LAYER_METRICS values for a traced phase of `ops` operations."""
        spans = self.by_name()
        counts = self.counts
        zero = (0, 0.0, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, unit in LAYER_METRICS.items():
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = spans.get(layer, zero)[0] / ops
            elif kind == "self_s":
                out[metric] = spans.get(layer, zero)[2] / ops
            elif unit == "count/op":
                out[metric] = counts[metric] / ops
        out["perfbench.self_s"] = sum(
            s for name, (_, _, s) in spans.items() if name.startswith("perfbench.")) / ops
        out["heuristics.offhead_frac"] = ratio(counts["heuristics.offhead"],
                                               counts["heuristics.hosted"])
        out["evaluation.check_constraints.feasible_frac"] = ratio(
            counts["evaluation.check_constraints.feasible"],
            spans.get("evaluation.check_constraints", zero)[0])
        out["perfbench.enum_checks_per_s"] = ratio(
            counts["perfbench.enum_checks"], spans.get("perfbench.enumerate_full", zero)[1])
        out["trace.wall_s"] = wall_s
        out["trace.covered_frac"] = ratio(sum(s for _, _, s in spans.values()), wall_s)
        out["trace.ops_per_s"] = ops_per_s
        return {name: out[name] for name in LAYER_METRICS}

    def write(self, path, extra: dict) -> None:
        """Write the span tree and counts as JSON."""
        payload = dict(extra)
        payload["spans"] = [
            {"parent": parent, "name": name, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))
        ]
        payload["counts"] = dict(sorted(self.counts.items()))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
