"""In-memory span tracing of fogplace's module boundaries, from outside the package.

A ``Tracer`` rebinds names in fogplace's module namespaces to wrappers that
record one span per call: layer name, op id, parent span, start and end.
Only names that one module imports from another are wrapped, so a span marks
a call across a layer boundary.  Nothing inside ``src/`` changes; leaving the
``installed`` block restores every original binding.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("solver.preprocess", "solver.greedy", "solver.search", "scenario", "ilp",
          "metrics", "experiment", "instance_io", "security", "model", "cli")

DECIDED = ("optimal", "infeasible")
SEARCH_COUNTERS = ("nodes_explored", "pruned_bound", "pruned_capacity", "pruned_qos",
                   "pruned_security")


@dataclass
class Span:
    name: str
    op: str
    parent: int  # index into Tracer.spans; -1 for a root span
    start: float
    end: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _report_info(report) -> dict:
    """What the search and greedy spans keep of a SolveReport."""
    return {"status": report.status.value,
            "cost": None if report.cost is None else report.cost.total,
            **report.search_stats.to_dict()}


def boundary_targets() -> list[tuple[object, str, str, object]]:
    """(module, attribute, layer, describe) for every wrapped call site."""
    from fogplace import cli, experiment, scenario, solver

    return [
        (solver, "_Problem", "solver.preprocess", None),
        (solver, "solve_greedy", "solver.greedy", _report_info),
        (solver, "solve_exact", "solver.search", _report_info),  # the runner's own calls
        (experiment, "solve_exact", "solver.search", _report_info),
        (cli, "solve_exact", "solver.search", _report_info),
        (scenario, "generate_instance", "scenario", None),  # the runner's own calls
        (experiment, "generate_instance", "scenario", None),
        (solver, "eval_cost", "ilp", None),
        (solver, "eval_delay", "ilp", None),
        (experiment, "count_deployed", "metrics", None),
        (experiment, "unprotected_data", "metrics", None),
        (cli, "metrics_for", "metrics", None),
        (experiment, "run_sweep", "experiment", None),  # the runner's own calls
        (experiment, "to_csv", "experiment", None),
        (experiment, "check_trends", "experiment", None),
        (cli, "load_instance", "instance_io", None),
        (cli, "save_report", "instance_io", None),
        (scenario, "rate_infrastructure", "security", None),
        (cli, "rate_infrastructure", "security", None),
        (cli, "boundary_distances", "security", None),
        (cli, "validate_instance", "model", None),
        (cli, "main", "cli", None),  # the runner's own calls
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def wrap(self, fn, name: str, describe=None):
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.info = describe(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, describe in boundary_targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> list[list]:
        return [[s.name, s.op, s.parent, s.start, s.end, s.info] for s in self.spans]


def layer_summary(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer busy time, calls and solver counters of ``spans[first:]``.

    Parents of these spans lie at index ``first`` or later, so a slice that
    starts at an op boundary is self-contained.
    """
    window = spans[first:]
    child_time = [0.0] * len(window)
    for s in window:
        if s.parent >= first:
            child_time[s.parent - first] += s.duration
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s, covered in zip(window, child_time):
        out[f"{s.name}.busy_s"] += s.duration - covered
        out[f"{s.name}.calls"] += 1

    searches = [s for s in window if s.name == "solver.search"]
    greedy = [s for s in window if s.name == "solver.greedy"]
    out["solver.preprocess.builds_per_solve"] = (
        out["solver.preprocess.calls"] / len(searches) if searches else 0.0)
    out["solver.greedy.combos"] = sum(s.info["nodes_explored"] for s in greedy)
    # Time-limited counts depend on machine speed, so only decided solves count.
    decided = [s for s in searches if s.info["status"] in DECIDED]
    out["solver.search.decided_ops"] = len(decided)
    for name in SEARCH_COUNTERS:
        out[f"solver.search.{name}"] = sum(s.info[name] for s in decided)
    greedy_cost = {s.parent: s.info["cost"] for s in greedy}
    optimal = [i for i, s in enumerate(window, first)
               if s.name == "solver.search" and s.info["status"] == "optimal"]
    same = sum(1 for i in optimal if greedy_cost.get(i) is not None
               and abs(greedy_cost[i] - spans[i].info["cost"]) <= 1e-9 * max(1.0, spans[i].info["cost"]))
    out["solver.search.greedy_optimal_share"] = same / len(optimal) if optimal else 0.0
    return out
