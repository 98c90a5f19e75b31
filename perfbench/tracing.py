"""Spans around each layer's public entry points, from outside the program.

:class:`Tracer` patches each entry point where its name is looked up (a
class attribute, or a module global for functions imported by name), records
one span per call — name, start, end, parent span, operation id — in memory,
and puts every original back on :meth:`Tracer.remove`.  Nothing under
``src/`` knows it is traced.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, owner attribute path) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.step", "repro.sim.engine", "Simulator.step"),
    ("network.fabric.start_flow", "repro.network.fabric", "FabricSimulator.start_flow"),
    ("network.fabric.abort_flow", "repro.network.fabric", "FabricSimulator.abort_flow"),
    ("network.transport.tcp", "repro.network.transport.tcp", "TcpTransport.update_rates"),
    ("network.transport.scda", "repro.network.transport.scda", "ScdaTransport.update_rates"),
    ("network.transport.ideal", "repro.network.transport.ideal", "IdealMaxMinTransport.update_rates"),
    ("network.fluid", "repro.network.transport.tcp", "max_min_shares"),
    ("network.fluid", "repro.network.transport.scda", "max_min_shares"),
    ("network.fluid", "repro.network.transport.ideal", "max_min_shares"),
    ("core.controller.flow_allocations", "repro.core.controller", "ScdaController.flow_allocations"),
    ("core.controller.control_round", "repro.core.controller", "ScdaController.control_round"),
    ("core.controller.selection_metrics", "repro.core.controller", "ScdaController.selection_metrics"),
    ("core.controller.run_round", "repro.core.maxmin", "ScdaTree.run_round"),
    ("cluster.write", "repro.cluster.cluster", "StorageCluster.write"),
    ("cluster.read", "repro.cluster.cluster", "StorageCluster.read"),
    ("metrics.record", "repro.metrics.records", "FlowRecord.from_flow"),
    ("metrics.from_dict", "repro.metrics.comparison", "SchemeResult.from_dict"),
    ("workloads.generate", "repro.experiments.spec", "ScenarioSpec.build_workload"),
    ("experiments.build_stack", "repro.experiments.runner", "build_stack"),
    ("exec.run_jobs", "repro.exec.executors", "run_jobs"),
    ("exec.store.put", "repro.exec.store", "ResultStore.put"),
    ("service.http", "repro.service.protocol", "http_json"),
)


class Span:
    """One call of a wrapped entry point."""

    __slots__ = ("name", "start", "end", "parent", "op", "size")

    def __init__(self, name: str, start: float, parent: int, op: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: flows handed to a solve, or jobs in an HTTP chunk (else 0)
        self.size = 0

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.size]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: operation id stamped on every span (the scheme run / job batch)
        self.op: Any = None
        #: highest ``FabricSimulator.active_flow_count`` seen after a start_flow
        self.peak_active_flows = 0
        #: live rows and re-solved rows over incremental solves
        self.incremental_rows = 0
        self.incremental_dirty_rows = 0
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._hooks: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
            "network.fluid": (self._fluid_before, self._fluid_after),
            "network.fabric.start_flow": (None, self._start_flow_after),
            "service.http": (self._http_before, None),
        }

    # -- wrapping --------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        stack_of = self._stack
        before, after = self._hooks.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = Span(name, clock(), stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                state = before(span, args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, state)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    # -- per-entry-point bookkeeping -------------------------------------------------
    def _fluid_before(self, span: Span, args: tuple, kwargs: dict) -> Any:
        span.size = len(args[0] if args else kwargs["flows"])
        delta = getattr(kwargs.get("cache"), "delta", None)
        if delta is None:
            return None
        return delta, delta.solves_incremental, delta.dirty_rows_total

    def _fluid_after(self, span: Span, args: tuple, state: Any) -> None:
        if state is None:
            return
        delta, incremental, dirty = state
        if delta.solves_incremental > incremental:
            self.incremental_rows += span.size
            self.incremental_dirty_rows += delta.dirty_rows_total - dirty

    def _start_flow_after(self, span: Span, args: tuple, state: Any) -> None:
        self.peak_active_flows = max(self.peak_active_flows, args[0].active_flow_count)

    def _http_before(self, span: Span, args: tuple, kwargs: dict) -> Any:
        payload = args[2] if len(args) > 2 else kwargs.get("payload")
        if isinstance(payload, dict):
            span.size = len(payload.get("jobs", ()))
        return None

    def install(self, entry_points: Iterable[Tuple[str, str, str]] = ENTRY_POINTS) -> None:
        for name, module, path in entry_points:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Put every original entry point back (in reverse order)."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()


# -- arithmetic ----------------------------------------------------------------------


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def nearest_rank(sorted_samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """(value, samples strictly after its rank) of the nearest-rank percentile."""
    n = len(sorted_samples)
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    rank = max(1, math.ceil(round(pct / 100.0 * n, 9)))
    return sorted_samples[rank - 1], n - rank


def tail(samples: Iterable[float], beyond: int = 10) -> Tuple[float, float, int]:
    """(percentile, value, sample count) of the highest percentile in
    :data:`TAIL_PERCENTILES` with at least ``beyond`` samples after it.

    With too few samples for any candidate the maximum is returned as the
    100th percentile, so the caller still sees the count.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0, 0.0, 0
    for pct in TAIL_PERCENTILES:
        value, after = nearest_rank(ordered, pct)
        if after >= beyond:
            return pct, value, len(ordered)
    return 100.0, ordered[-1], len(ordered)


def summarize(
    spans: Sequence[Span], scale: Optional[Dict[Any, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    ``scale`` maps an operation id to a factor applied to its spans' times
    (the rescaling to the reference CPU speed).
    """
    scale = scale or {}
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        factor = scale.get(span.op, 1.0)
        row = out[span.name]
        row["calls"] += 1
        row["s"] += (span.end - span.start) * factor
        row["self_s"] += own * factor
    return dict(out)
