"""Per-layer metrics of a traced run, as means per traced operation.

A layer that runs only inside spawned workers or daemons reads 0 here,
except for the counters its results carry back (``Op.counts``).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from tracing import Tracer, nearest_rank, summarize, tail

#: Every per-layer metric and its unit, in report order (BENCHMARK.json
#: lists the same names and units; a test keeps the two in step).
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.heap_compactions": "count",
    "sim.step.self_s": "s",
    "sim.step.p50_us": "us",
    "sim.step.tail_us": "us",
    "sim.step.tail_pct": "pct",
    "sim.step.samples": "count",
    "network.fabric.start_flow.calls": "count",
    "network.fabric.start_flow.self_s": "s",
    "network.fabric.abort_flow.calls": "count",
    "network.fabric.recomputes": "count",
    "network.fabric.recomputes_coalesced": "count",
    "network.fabric.peak_active_flows": "flows",
    "network.transport.calls": "count",
    "network.transport.tcp.self_s": "s",
    "network.transport.scda.self_s": "s",
    "network.transport.ideal.self_s": "s",
    "network.fluid.calls": "count",
    "network.fluid.s": "s",
    "network.fluid.mean_flows": "flows",
    "network.fluid.solves_incremental": "count",
    "network.fluid.solves_full": "count",
    "network.fluid.fallback_large_region": "count",
    "network.fluid.dirty_rows_max": "count",
    "network.fluid.dirty_row_frac": "ratio",
    "core.controller.rounds": "count",
    "core.controller.run_round.s": "s",
    "core.controller.flow_allocations.self_s": "s",
    "core.controller.selection_metrics.s": "s",
    "cluster.requests": "count",
    "cluster.write.self_s": "s",
    "cluster.read.self_s": "s",
    "workloads.requests": "count",
    "workloads.generate.s": "s",
    "experiments.build_stack.s": "s",
    "metrics.records": "count",
    "metrics.record.s": "s",
    "metrics.from_dict.s": "s",
    "metrics.from_dict.per_job": "count",
    "exec.jobs": "count",
    "exec.retried": "count",
    "exec.failed": "count",
    "exec.fallbacks": "count",
    "exec.first_result_s": "s",
    "exec.queue_wait_s": "s",
    "exec.worker_overhead_s": "s",
    "exec.worker_busy_frac": "ratio",
    "metrics.codec.encode_s": "s",
    "metrics.codec.decode_s": "s",
    "metrics.codec.bytes_per_result": "B",
    "metrics.codec.columnar_frac": "ratio",
    "exec.store.put.calls": "count",
    "exec.store.put.s": "s",
    "exec.store.bytes_per_result": "B",
    "service.http.calls": "count",
    "service.http.s": "s",
    "service.overhead_s": "s",
    "service.wire_bytes": "B",
    "trace.overhead_frac": "ratio",
}

#: Counters every workload reports through ``Op.counts`` (mean per operation).
COUNTED = (
    "sim.events",
    "sim.heap_compactions",
    "network.fabric.recomputes",
    "network.fabric.recomputes_coalesced",
    "network.fluid.solves_incremental",
    "network.fluid.solves_full",
    "network.fluid.fallback_large_region",
    "workloads.requests",
    "metrics.records",
)

#: Time-valued sweep-batch figures, rescaled like the operation's wall time.
_BATCH_TIMES = (
    "exec.first_result_s",
    "exec.queue_wait_s",
    "exec.worker_overhead_s",
    "metrics.codec.encode_s",
    "metrics.codec.decode_s",
    "service.overhead_s",
)


def batch_layers(work: Any, tracer: Tracer, op: Any, stats_before: List[dict]) -> Dict[str, float]:
    """exec, codec, store and service figures of one traced sweep batch."""
    report = work.last_report
    jobs = work.jobs(op.index)
    at = {(event, key): t for event, key, t in work.events}
    walls = {
        job.key: work.last_results[job.key].wall_clock_s
        for job in jobs if job.key in work.last_results
    }
    submitted = [at[("submitted", key)] for key in walls if ("submitted", key) in at]
    finished = [t for (event, _), t in at.items() if event == "finished"]
    overhead = [
        at[("finished", key)] - at[("submitted", key)] - wall
        for key, wall in walls.items()
        if ("finished", key) in at and ("submitted", key) in at
    ]
    wire = report.wire
    computed = max(1, report.computed)
    own = [span for span in tracer.spans if span.op == op.index]
    posts = [span for span in own if span.name == "service.http" and span.size > 0]
    layers = {
        "metrics.from_dict.per_job": sum(s.name == "metrics.from_dict" for s in own) / computed,
        "exec.jobs": float(len(jobs)),
        "exec.retried": float(report.retried),
        "exec.failed": float(len(report.failures)),
        "exec.fallbacks": float(len(report.fallbacks)),
        "exec.first_result_s": min(finished, default=0.0),
        "exec.queue_wait_s": statistics.fmean(submitted) if submitted else 0.0,
        "exec.worker_overhead_s": statistics.fmean(overhead) if overhead else 0.0,
        "exec.worker_busy_frac": sum(walls.values()) / (work.WORKERS * op.wall_s),
        "metrics.codec.encode_s": wire.get("encode_s", 0.0),
        "metrics.codec.decode_s": wire.get("decode_s", 0.0),
        "metrics.codec.bytes_per_result": (
            wire["encoded_bytes"] / wire["encoded_results"] if wire.get("encoded_results") else 0.0
        ),
        "metrics.codec.columnar_frac": wire.get("decoded_results", 0.0) / computed,
        "exec.store.bytes_per_result": work.last_store_bytes / computed,
    }
    if posts:
        # One POST /jobs per chunk: its round trip minus the jobs' own loops.
        layers["service.overhead_s"] = (
            sum(span.end - span.start for span in posts) - sum(walls.values())
        ) / len(posts)
        layers["service.wire_bytes"] = float(sum(
            after.get("wire_bytes", 0) - before.get("wire_bytes", 0)
            for after, before in zip(work.worker_stats(), stats_before)
        ))
    factor = op.ref_wall_s / op.wall_s
    for key in _BATCH_TIMES:
        if key in layers:
            layers[key] *= factor
    return layers


def layer_metrics(
    traced: List[Any], untraced: List[Any], tracer: Tracer, batches: List[Dict[str, float]]
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced run."""
    n = len(traced)
    scale = {op.index: op.ref_wall_s / op.wall_s for op in traced}
    spans = summarize(tracer.spans, scale)

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0) / n

    steps_us = sorted(
        (s.end - s.start) * 1e6 * scale.get(s.op, 1.0) for s in tracer.spans if s.name == "sim.step"
    )
    tail_pct, tail_us, samples = tail(steps_us)
    fluid_calls = spans.get("network.fluid", {}).get("calls", 0.0)
    transports = ("network.transport.tcp", "network.transport.scda", "network.transport.ideal")
    values = {name: sum(op.counts.get(name, 0.0) for op in traced) / n for name in COUNTED}
    values.update({
        "sim.step.self_s": span("sim.step", "self_s"),
        "sim.step.p50_us": nearest_rank(steps_us, 50.0)[0] if steps_us else 0.0,
        "sim.step.tail_us": tail_us,
        "sim.step.tail_pct": tail_pct,
        "sim.step.samples": float(samples),
        "network.fabric.start_flow.calls": span("network.fabric.start_flow", "calls"),
        "network.fabric.start_flow.self_s": span("network.fabric.start_flow", "self_s"),
        "network.fabric.abort_flow.calls": span("network.fabric.abort_flow", "calls"),
        "network.fabric.peak_active_flows": max(
            [float(tracer.peak_active_flows)]
            + [op.counts.get("network.fabric.peak_active_flows", 0.0) for op in traced]
        ),
        "network.transport.calls": sum(span(name, "calls") for name in transports),
        "network.transport.tcp.self_s": span("network.transport.tcp", "self_s"),
        "network.transport.scda.self_s": span("network.transport.scda", "self_s"),
        "network.transport.ideal.self_s": span("network.transport.ideal", "self_s"),
        "network.fluid.calls": fluid_calls / n,
        "network.fluid.s": span("network.fluid", "s"),
        "network.fluid.mean_flows": (
            sum(s.size for s in tracer.spans if s.name == "network.fluid") / fluid_calls
            if fluid_calls else 0.0
        ),
        "network.fluid.dirty_rows_max": max(
            op.counts.get("network.fluid.dirty_rows_max", 0.0) for op in traced
        ),
        "network.fluid.dirty_row_frac": (
            tracer.incremental_dirty_rows / tracer.incremental_rows
            if tracer.incremental_rows else 0.0
        ),
        "core.controller.rounds": span("core.controller.run_round", "calls"),
        "core.controller.run_round.s": span("core.controller.run_round", "s"),
        "core.controller.flow_allocations.self_s": span("core.controller.flow_allocations", "self_s"),
        "core.controller.selection_metrics.s": span("core.controller.selection_metrics", "s"),
        "cluster.requests": span("cluster.write", "calls") + span("cluster.read", "calls"),
        "cluster.write.self_s": span("cluster.write", "self_s"),
        "cluster.read.self_s": span("cluster.read", "self_s"),
        "workloads.generate.s": span("workloads.generate", "s"),
        "experiments.build_stack.s": span("experiments.build_stack", "s"),
        "metrics.record.s": span("metrics.record", "s"),
        "metrics.from_dict.s": span("metrics.from_dict", "s"),
        "exec.store.put.calls": span("exec.store.put", "calls"),
        "exec.store.put.s": span("exec.store.put", "s"),
        "service.http.calls": span("service.http", "calls"),
        "service.http.s": span("service.http", "s"),
        "trace.overhead_frac": (
            sum(op.ref_wall_s for op in traced) / sum(op.ref_wall_s for op in untraced) - 1.0
        ),
    })
    for name in PER_LAYER:
        if name not in values:
            values[name] = statistics.fmean(batch.get(name, 0.0) for batch in batches) if batches else 0.0
    return values
