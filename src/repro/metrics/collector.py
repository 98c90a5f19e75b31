"""The metrics collector: flow completions, throughput and availability sampling."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metrics.availability import AvailabilitySample, AvailabilitySeries
from repro.metrics.records import FlowRecord
from repro.metrics.throughput import ThroughputSample, ThroughputSeries
from repro.network.fabric import FabricSimulator
from repro.network.flow import Flow, FlowKind
from repro.sim.timers import PeriodicTimer


class MetricsCollector:
    """Collects flow records and samples instantaneous throughput.

    Parameters
    ----------
    fabric:
        The fabric to observe; the collector registers a completion callback.
    sample_interval_s:
        Period of the instantaneous-throughput sampling (the paper plots the
        average instantaneous throughput roughly once per simulated second).
    record_kinds:
        If given, only flows of these kinds are recorded (e.g. exclude
        background replication flows from client-facing FCT statistics).
    """

    def __init__(
        self,
        fabric: FabricSimulator,
        sample_interval_s: float = 1.0,
        record_kinds: Optional[Sequence[FlowKind]] = None,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self.fabric = fabric
        self.sample_interval_s = float(sample_interval_s)
        self.record_kinds = tuple(record_kinds) if record_kinds else None
        self.records: List[FlowRecord] = []
        self.throughput = ThroughputSeries()
        #: link availability + flow-disruption series, sampled on the same
        #: timer as the throughput (trivial on a static world, which keeps
        #: dynamic and static runs structurally identical)
        self.availability = AvailabilitySeries()
        self.flows_started = 0
        #: Sessions started — equals :attr:`flows_started` until an aggregate
        #: (multiplicity > 1) flow arrives, then counts every session it
        #: stands in for.
        self.sessions_started = 0
        self._timer: Optional[PeriodicTimer] = None
        self._last_sample_time = fabric.sim.now
        self._last_total_bytes = fabric.total_bytes_delivered

        fabric.on_flow_finished(self._on_flow_finished)
        fabric.on_flow_started(self._on_flow_started)

    # -- lifecycle ------------------------------------------------------------------------
    def start_sampling(self) -> None:
        """Begin periodic throughput sampling."""
        if self._timer is None:
            self._timer = PeriodicTimer(self.fabric.sim, self.sample_interval_s, self._sample)

    def stop_sampling(self) -> None:
        """Stop sampling (takes a final sample first)."""
        if self._timer is not None:
            self._sample(self.fabric.sim.now)
            self._timer.stop()
            self._timer = None

    def detach(self) -> None:
        """Fully disconnect the collector from its fabric.

        Stops the periodic sampling timer (if running) and unregisters the
        flow-completion callback, so the collector records nothing further
        and the fabric holds no reference back to it.  Idempotent — safe to
        call twice, or on a collector that never started sampling.  Use this
        to tear a collector down cleanly between jobs in a long-lived
        worker; the collected records and throughput series stay readable.
        """
        self.stop_sampling()
        self.fabric.remove_flow_finished_callback(self._on_flow_finished)
        self.fabric.remove_flow_started_callback(self._on_flow_started)

    # -- callbacks --------------------------------------------------------------------------
    def _on_flow_finished(self, flow: Flow, now: float) -> None:
        if self.record_kinds is not None and flow.kind not in self.record_kinds:
            return
        self.records.append(FlowRecord.from_flow(flow))

    def _on_flow_started(self, flow: Flow, now: float) -> None:
        self.flows_started += 1
        self.sessions_started += flow.multiplicity

    def _sample(self, now: float) -> None:
        active = self.fabric.active_flows
        dt = now - self._last_sample_time
        delivered = self.fabric.total_bytes_delivered - self._last_total_bytes
        aggregate_bps = delivered * 8.0 / dt if dt > 0 else 0.0
        per_flow_rates = [f.current_rate_bps for f in active]
        if getattr(self.fabric, "_aggregate_active", 0):
            # Session-weighted view: an aggregate flow counts as N active
            # sessions, and the mean per-session rate is Σ aggregate rates
            # over Σ sessions (each session runs at rate/multiplicity).
            sessions = sum(f.multiplicity for f in active)
            mean_flow_bps = float(np.sum(per_flow_rates)) / sessions if sessions else 0.0
        else:
            sessions = len(active)
            mean_flow_bps = float(np.mean(per_flow_rates)) if per_flow_rates else 0.0
        self.throughput.add(
            ThroughputSample(
                time_s=now,
                active_flows=sessions,
                aggregate_bps=aggregate_bps,
                mean_flow_bps=mean_flow_bps,
            )
        )
        self.availability.add(
            AvailabilitySample(
                time_s=now,
                links_down=self.fabric.links_down,
                links_total=len(self.fabric.topology.links),
                flows_rerouted=self.fabric.flows_rerouted_on_failure,
                flows_aborted=self.fabric.flows_aborted_on_failure,
            )
        )
        self._last_sample_time = now
        self._last_total_bytes = self.fabric.total_bytes_delivered

    # -- accessors ---------------------------------------------------------------------------
    def fcts(self, kinds: Optional[Sequence[FlowKind]] = None) -> np.ndarray:
        """Array of flow completion times, optionally filtered by kind."""
        records = self.filtered_records(kinds)
        return np.array([r.fct_s for r in records], dtype=float)

    def sizes(self, kinds: Optional[Sequence[FlowKind]] = None) -> np.ndarray:
        """Array of flow sizes matching :meth:`fcts`."""
        records = self.filtered_records(kinds)
        return np.array([r.size_bytes for r in records], dtype=float)

    def filtered_records(self, kinds: Optional[Sequence[FlowKind]] = None) -> List[FlowRecord]:
        """Records filtered to the given kinds (all records when None)."""
        if kinds is None:
            return list(self.records)
        kindset = set(kinds)
        return [r for r in self.records if r.kind in kindset]

    @property
    def completed_count(self) -> int:
        """Number of recorded completions."""
        return len(self.records)

    def kernel_extras(self) -> Dict[str, float]:
        """Perf counters from the allocation kernel, fabric and event engine.

        Exported into ``SchemeResult.extras`` under a ``kernel_`` prefix (see
        the experiment runner) so benches and the serve daemon can explain
        *why* a run was slow: how often the water-filler solved incrementally
        vs in full, how large the dirty regions were, how much churn the
        fabric coalesced, and how often the event heap was compacted.
        All values are deterministic functions of the run, so they are safe
        inside the canonical (bit-compared) result payload.
        """
        fabric = self.fabric
        sim = fabric.sim
        extras: Dict[str, float] = {
            "recomputes": float(fabric.recomputes),
            "recomputes_coalesced": float(fabric.recomputes_coalesced),
            "heap_compactions": float(sim.heap_compactions),
        }
        delta = fabric.incidence.delta
        if delta is not None:
            extras.update(delta.stats())
        return extras
