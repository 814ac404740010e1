"""Span tracing around the public functions each layer of ``repro`` exposes.

The tracer patches nothing inside the library's code: it swaps the module
attributes through which one layer calls another for thin wrappers that
record a span per call, and puts the originals back afterwards.  A span
carries a name, start, end, the span that caused it and the instance (one
workload input) it belongs to.  Self time is a span's duration minus the
part of it its child spans cover.  Spans stay in memory and are written out
when the run ends.

Only in-process calls are seen.  Process-pool workers are forked from an
untraced parent, so the figure1 workload collects item spans from a serial
pass and times the pooled ``BatchEngine`` call separately.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Engine stages the reduction session reports in
#: ``details["engine_stats"]["stage_timings"]``.
STAGES = (
    "pair_scan",
    "dv_rebuild",
    "dv_patch",
    "dv_antichain",
    "candidate_sync",
    "analysis_push",
    "keep_alive_build",
    "keep_alive_repair",
    "greedy_decompose",
)

#: Integer engine counters summed over every heuristic reduction.
ENGINE_COUNTS = (
    "pushes",
    "evaluated_candidates",
    "pair_verdicts_reused",
    "dv_rebuilds",
    "dv_reuses",
    "dv_patches",
    "killing_set_hits",
    "killing_set_misses",
    "vector_kernel_calls",
    "row_block_patches",
    "mirror_bulk_seeds",
    "components_reused",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: Optional[int]
    instance: Optional[str]
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory span and counter store for one traced run."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, instance: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = len(self.spans)
        if instance is None:
            # A top-level call is an instance of its own (superblock calls
            # the heuristic once per input, outside any batch).
            instance = parent.instance if parent is not None else f"call-{span_id}"
        record = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=None if parent is None else parent.span_id,
            instance=instance,
        )
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""

        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: Dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.span_id, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.span_id] = (s.end - s.start) - covered
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total duration and total self time."""

        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += selfs[s.span_id]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        [s.span_id, s.name, s.start, s.end, s.parent, s.instance]
                        for s in self.spans
                    ],
                    "span_fields": ["id", "name", "start", "end", "parent", "instance"],
                    "counts": self.counts,
                },
                fh,
            )


# ---------------------------------------------------------------------- #
# Layer boundaries
# ---------------------------------------------------------------------- #


def _engine_stats(tracer: Tracer, result) -> None:
    tracer.add("reduction.heuristic.iterations", result.details.get("iterations", 0))
    stats = result.details.get("engine_stats", {})
    for key in ENGINE_COUNTS:
        tracer.add("reduction." + key, stats.get(key, 0))
    for stage, seconds in stats.get("stage_timings", {}).items():
        tracer.add("reduction.stage." + stage, seconds)


def _on_heuristic(tracer: Tracer, args, result) -> None:
    _engine_stats(tracer, result)


def _on_multi_budget(tracer: Tracer, args, results) -> None:
    if results:
        # Session counters are cumulative over the ladder: the smallest
        # budget's snapshot is the whole ladder's total.
        _engine_stats(tracer, results[min(results)])


def _on_solve(tracer: Tracer, args, solution) -> None:
    from repro.ilp import SolveStatus

    program = args[0]
    tracer.add("ilp.variables_sum", program.num_variables)
    tracer.add("ilp.constraints_sum", program.num_constraints)
    if solution.status in (SolveStatus.TIME_LIMIT, SolveStatus.ITERATION_LIMIT):
        tracer.add("ilp.limit_hits", 1)


def _on_spill(tracer: Tracer, args, result) -> None:
    tracer.add("allocation.spill.memory_ops", result.memory_operations_added)


#: (module, attribute, span name, result hook).  The span name is the layer
#: the function belongs to; every module of ``repro`` that holds the same
#: function object under that attribute gets the wrapper.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.saturation.greedy", "greedy_saturation", "saturation.greedy", None),
    ("repro.saturation.exact_ilp", "exact_saturation", "saturation.exact", None),
    ("repro.reduction.heuristic", "reduce_saturation_heuristic", "reduction.heuristic",
     _on_heuristic),
    ("repro.reduction.heuristic", "reduce_saturation_multi_budget", "reduction.heuristic",
     _on_multi_budget),
    ("repro.reduction.exact_ilp", "reduce_saturation_exact", "reduction.exact", None),
    ("repro.ilp", "solve", "ilp.solve", _on_solve),
    ("repro.scheduling.list_scheduler", "list_schedule", "scheduling.list_schedule", None),
    ("repro.allocation.linear_scan", "linear_scan_allocate", "allocation.linear_scan", None),
    ("repro.allocation.spill", "schedule_with_spilling", "allocation.spill", _on_spill),
    ("repro.analysis.shm", "pack_item", "analysis.shm.pack", None),
)


def _wrap(tracer: Tracer, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _wrap_map(tracer: Tracer, original: Callable) -> Callable:
    """Wrap ``BatchEngine.map_with_outcomes``: one span per call, and one
    instance span per item when the items run in this process."""

    def traced(engine, fn, items, **kwargs):
        work = list(items)
        call_fn = fn
        if engine.policy == "serial":
            ids = itertools.count()

            def call_fn(item):
                with tracer.span("experiments.engine.item", instance=f"item-{next(ids)}"):
                    return fn(item)
        with tracer.span("experiments.engine.map") as span:
            results, outcomes = original(engine, call_fn, work, **kwargs)
        workers = 1 if engine.policy == "serial" else engine.resolved_workers(len(work))
        tracer.add("experiments.engine.map.workers_x_s", workers * (span.end - span.start))
        tracer.add("experiments.engine.retries",
                   sum(max(0, o.attempts - 1) for o in outcomes))
        # Busy time per item: pipeline outcomes carry their own wall time
        # (measured in the worker); otherwise the item spans measured it.
        item_time = sum(getattr(r, "wall_time", 0.0) or 0.0 for r in results)
        tracer.add("experiments.engine.map.item_s", item_time)
        return results, outcomes

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every cross-layer call of ``repro`` through *tracer* while active."""

    import importlib

    from repro.analysis import shm
    from repro.experiments.engine import BatchEngine

    importlib.import_module("repro.experiments")
    patched: List[Tuple[object, str, object]] = []
    for module_name, attr, name, hook in BOUNDARIES:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, original, name, hook)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(module, attr, None) is original:
                patched.append((module, attr, original))
                setattr(module, attr, wrapper)
    original_map = BatchEngine.map_with_outcomes
    BatchEngine.map_with_outcomes = _wrap_map(tracer, original_map)
    patched.append((BatchEngine, "map_with_outcomes", original_map))
    exports_before = shm.counters["exports"]
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        tracer.add("analysis.shm.segments", shm.counters["exports"] - exports_before)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run's spans."""

    rows = tracer.by_name()
    c = tracer.counts

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return rows.get(name, {}).get("calls", 0)

    heuristic_total = rows.get("reduction.heuristic", {}).get("total_s", 0.0)
    stage_sum = sum(c.get("reduction.stage." + s, 0.0) for s in STAGES)
    map_row = rows.get("experiments.engine.map", {})
    item_s = c.get("experiments.engine.map.item_s", 0.0)
    if not item_s:
        item_s = rows.get("experiments.engine.item", {}).get("total_s", 0.0)
    # Item spans only mark which input a span belongs to; their self time
    # is experiment glue that no layer owns.
    attributed = sum(
        row["self_s"] for name, row in rows.items() if name != "experiments.engine.item"
    )
    metrics: Dict[str, float] = {
        "experiments.engine.map_s": map_row.get("total_s", 0.0),
        "experiments.engine.idle_frac": (
            1.0 - _ratio(item_s, c.get("experiments.engine.map.workers_x_s", 0.0))
            if map_row else 0.0
        ),
        "experiments.engine.retries": c.get("experiments.engine.retries", 0),
        "analysis.shm.pack_s": rows.get("analysis.shm.pack", {}).get("total_s", 0.0),
        "analysis.shm.segments": c.get("analysis.shm.segments", 0),
        "allocation.spill.self_s": self_s("allocation.spill"),
        "allocation.spill.memory_ops": c.get("allocation.spill.memory_ops", 0),
        "allocation.linear_scan.self_s": self_s("allocation.linear_scan"),
        "scheduling.list_schedule.self_s": self_s("scheduling.list_schedule"),
        "saturation.greedy.self_s": self_s("saturation.greedy"),
        "saturation.greedy.calls": calls("saturation.greedy"),
        "reduction.heuristic.self_s": self_s("reduction.heuristic"),
        "reduction.heuristic.calls": calls("reduction.heuristic"),
        "reduction.heuristic.iterations": c.get("reduction.heuristic.iterations", 0),
    }
    for stage in STAGES:
        metrics[f"reduction.stage.{stage}_s"] = c.get("reduction.stage." + stage, 0.0)
    metrics["reduction.stage.unattributed_frac"] = (
        1.0 - _ratio(stage_sum, heuristic_total) if heuristic_total else 0.0
    )
    metrics["reduction.verdict_reuse_ratio"] = _ratio(
        c.get("reduction.pair_verdicts_reused", 0),
        c.get("reduction.pair_verdicts_reused", 0) + c.get("reduction.evaluated_candidates", 0),
    )
    metrics["reduction.dv_reuse_ratio"] = _ratio(
        c.get("reduction.dv_reuses", 0),
        c.get("reduction.dv_reuses", 0)
        + c.get("reduction.dv_patches", 0)
        + c.get("reduction.dv_rebuilds", 0),
    )
    metrics["reduction.killing_set_hit_ratio"] = _ratio(
        c.get("reduction.killing_set_hits", 0),
        c.get("reduction.killing_set_hits", 0) + c.get("reduction.killing_set_misses", 0),
    )
    for key in (
        "pushes",
        "evaluated_candidates",
        "vector_kernel_calls",
        "row_block_patches",
        "mirror_bulk_seeds",
        "components_reused",
    ):
        metrics["reduction." + key] = c.get("reduction." + key, 0)
    metrics.update(
        {
            "saturation.exact.self_s": self_s("saturation.exact"),
            "reduction.exact.self_s": self_s("reduction.exact"),
            "ilp.solve_s": rows.get("ilp.solve", {}).get("total_s", 0.0),
            "ilp.solve.calls": calls("ilp.solve"),
            "ilp.limit_hits": c.get("ilp.limit_hits", 0),
            "ilp.variables_sum": c.get("ilp.variables_sum", 0),
            "ilp.constraints_sum": c.get("ilp.constraints_sum", 0),
            "trace.attributed_frac": _ratio(attributed, traced_wall),
        }
    )
    return metrics
