"""Outside-in tracer: spans around calls into prunekit's public functions.

The child side (``Tracer``, ``install``) replaces each traced function with a
wrapper at every module attribute that binds it: the defining module, the
package re-exports, and every ``from .x import y`` name in the other modules
(``cli.validate_graph``, ``planner.graph_checksum``, ``surgeon.infer_shapes``
...). Function-local imports such as those in ``planner.multi_pass`` read the
module attribute at call time, so they get the wrapper too. Nothing under
``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, counters]`` on the
``CLOCK_MONOTONIC`` clock, which the parent process shares, so the parent can
place a child's spans inside the child's measured wall time. Spans stay in
memory and are written once, when the child ends.

The parent side (``step_profile``) derives self times: a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# defining module -> public functions traced in it
TRACED = {
    "graph": ("load_model", "validate", "infer_shapes", "serialize_graph", "graph_checksum", "save_model"),
    "units": ("build_prune_units",),
    "scoring": ("score_all", "dependency_l1", "records_to_csv", "records_to_json"),
    "costs": (
        "effective_model_costs",
        "unit_param_cost",
        "unit_flop_cost",
        "model_param_count",
        "model_flop_count",
    ),
    "planner": ("select_threshold", "multi_pass"),
    "surgeon": ("apply_plan", "apply_units", "clone_graph", "zero_equivalence_check"),
    "eval": ("forward_eval",),
}

# functions reported under one shared span name
MERGED = {
    "scoring.records_to_csv": "scoring.records_export",
    "scoring.records_to_json": "scoring.records_export",
    "costs.unit_param_cost": "costs.unit_cost",
    "costs.unit_flop_cost": "costs.unit_cost",
}


def _units_by_kind(units) -> dict:
    return dict(Counter(f"units.count.{u.kind}" for u in units))


# span name -> counters derived from the call's result
COUNTERS = {
    "graph.serialize_graph": lambda result: {"graph.serialize_graph.bytes": len(result[1])},
    "units.build_prune_units": _units_by_kind,
    "planner.select_threshold": lambda plan: {"planner.units_removed": len(plan.removed_unit_ids)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic_ns(), 0, self._stack[-1], None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self._stack.pop()
            if counters is not None:
                span[4] = counters(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every binding of every traced function in the loaded prunekit
    modules (the package imports all of them, and the CLI is imported here)."""
    importlib.import_module("prunekit.cli")
    wrappers = {}
    for short, names in TRACED.items():
        module = importlib.import_module(f"prunekit.{short}")
        for fname in names:
            qual = f"{short}.{fname}"
            original = getattr(module, fname)
            wrappers[id(original)] = (original, tracer.wrap(MERGED.get(qual, qual), original))
    for name, module in sorted(sys.modules.items()):
        if name != "prunekit" and not name.startswith("prunekit."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals, in ns."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def step_profile(spans: list[list], t_start: int, t_end: int) -> tuple[dict, int, list[str]]:
    """Self times and counters of one traced step.

    ``t_start``/``t_end`` bound the child process as the parent measured it.
    Returns (metrics summed by name, the step's uncovered ns, problems). The
    uncovered part is the time no wrapped call accounts for: interpreter
    start-up, imports, argument parsing, input hashing, artifact writing.
    Problems list spans outside their parent or the step, and a failed
    identity: all self times plus the uncovered part equal the wall time.
    """
    problems: list[str] = []
    children: list[list[int]] = [[] for _ in spans]
    top: list[int] = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        (children[parent] if parent >= 0 else top).append(i)
    metrics: dict[str, float] = {}
    self_total = 0
    for i, (name, start, end, parent, counters) in enumerate(spans):
        lo, hi = (spans[parent][1], spans[parent][2]) if parent >= 0 else (t_start, t_end)
        if not lo <= start <= end <= hi:
            problems.append(f"span {i} ({name}) lies outside its parent")
        self_ns = end - start - _covered([(spans[c][1], spans[c][2]) for c in children[i]])
        if self_ns < 0:
            problems.append(f"span {i} ({name}) has negative self time")
        self_total += self_ns
        metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + self_ns / 1e9
        metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
        for key, value in (counters or {}).items():
            metrics[key] = metrics.get(key, 0) + value
    # full-model recounts made by the planner while marking units
    metrics["planner.recounts"] = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "costs.effective_model_costs" and parent >= 0 and spans[parent][0] == "planner.select_threshold"
    )
    uncovered = (t_end - t_start) - _covered([(spans[t][1], spans[t][2]) for t in top])
    if self_total + uncovered != t_end - t_start:
        problems.append(f"self times sum to {self_total + uncovered} ns, wall time is {t_end - t_start} ns")
    return metrics, uncovered, problems
