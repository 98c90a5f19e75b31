"""Flow-level TCP model — the rate-control half of the RandTCP baseline.

The paper's baseline ("RandTCP") relies on standard TCP (Jacobson congestion
avoidance and control) to determine sending rates.  We model TCP at flow
granularity, reproducing the phenomena the paper attributes RandTCP's poor
FCT/throughput to:

* **slow start** — a new flow starts at a couple of segments per RTT and
  needs several RTTs to reach its fair share, which dominates the completion
  time of short flows;
* **AIMD oscillation** — once queues overflow, every flow crossing the lossy
  link halves its window, then climbs back linearly, so long flows hover
  below the link share;
* **queue-induced RTT inflation** — standing queues at congested links
  stretch the RTT, which further slows window growth.

The *delivered* rate of each flow is the max-min share of the network given
every flow's window-derived demand, i.e. the network enforces an
approximately fair split at the bottleneck while the window dynamics decide
how much each source offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.network.flow import Flow
from repro.network.fluid import max_min_shares
from repro.network.transport.base import TransportModel


@dataclass
class TcpConfig:
    """Parameters of the flow-level TCP model."""

    mss_bytes: float = 1460.0            #: maximum segment size
    initial_window_segments: float = 2.0 #: IW (RFC 5681-era default)
    #: Initial slow-start threshold.  NS-2's TCP starts with an effectively
    #: unbounded ssthresh (slow start runs until the first loss), which is the
    #: behaviour the paper's RandTCP baseline exhibits; the classic 64 KB value
    #: can be set here to model more conservative stacks.
    initial_ssthresh_bytes: float = float("inf")
    min_window_segments: float = 1.0     #: floor after a loss
    max_window_bytes: float = 16 * 1024 * 1024.0  #: receive-window cap
    loss_backoff: float = 0.5            #: multiplicative decrease factor
    ack_every_bytes: float = 2 * 1460.0  #: delayed-ACK granularity (unused knob kept for clarity)

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")
        if not (0.0 < self.loss_backoff < 1.0):
            raise ValueError("loss_backoff must be in (0, 1)")
        if self.initial_window_segments < self.min_window_segments:
            raise ValueError("initial window cannot be below the minimum window")


class TcpTransport(TransportModel):
    """Flow-level TCP (slow start + AIMD) with shared-bottleneck fairness."""

    name = "tcp"

    def __init__(self, config: TcpConfig | None = None) -> None:
        super().__init__()
        self.config = config or TcpConfig()
        self._last_update: Dict[int, float] = {}

    # -- lifecycle hooks ------------------------------------------------------------
    def on_flow_start(self, flow: Flow, now: float) -> None:
        cfg = self.config
        flow.transport_state["cwnd"] = cfg.initial_window_segments * cfg.mss_bytes
        flow.transport_state["ssthresh"] = min(cfg.initial_ssthresh_bytes, cfg.max_window_bytes)
        flow.transport_state["losses"] = 0.0
        self._last_update[flow.flow_id] = now

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        self._last_update.pop(flow.flow_id, None)

    def on_flow_rerouted(self, flow: Flow, now: float, reason: str = "policy") -> None:
        """A failure reroute is a timeout+reconnect: restart in slow start.

        Policy reroutes (Hedera) are transparent to the endpoints and leave
        the window untouched.
        """
        if reason != "failure":
            return
        cfg = self.config
        state = flow.transport_state
        cwnd = state.get("cwnd", cfg.initial_window_segments * cfg.mss_bytes)
        state["ssthresh"] = max(
            cwnd * cfg.loss_backoff, cfg.min_window_segments * cfg.mss_bytes
        )
        state["cwnd"] = cfg.initial_window_segments * cfg.mss_bytes
        state["losses"] = state.get("losses", 0.0) + 1.0
        self._last_update[flow.flow_id] = now

    # -- rate assignment --------------------------------------------------------------
    def update_rates(self, flows: Sequence[Flow], now: float) -> None:
        cfg = self.config

        # 1. Per flow, the queueing delay along its path and whether a link on
        #    it overflowed since the previous update (the fabric latches buffer
        #    overflows during queue integration; this consumes the latches).
        queueing, lossy = self.fabric.path_congestion(flows)

        # 2. Evolve each flow's window.
        demands: Dict[int, float] = {}
        for flow, queue_delay, lost in zip(flows, queueing, lossy):
            state = flow.transport_state
            if "cwnd" not in state:  # flow started outside on_flow_start (defensive)
                self.on_flow_start(flow, now)
                state = flow.transport_state
            last = self._last_update.get(flow.flow_id, now)
            dt = max(0.0, now - last)
            self._last_update[flow.flow_id] = now

            # Flow.rtt_estimate: base RTT plus the path's queueing delay.
            rtt = max(flow.base_rtt_s + queue_delay, 1e-4)
            cwnd = state["cwnd"]
            ssthresh = state["ssthresh"]

            if lost:
                # Multiplicative decrease on loss.
                ssthresh = max(cwnd * cfg.loss_backoff, cfg.min_window_segments * cfg.mss_bytes)
                cwnd = max(ssthresh, cfg.min_window_segments * cfg.mss_bytes)
                state["losses"] += 1.0
            elif dt > 0.0:
                rtts_elapsed = dt / rtt
                if cwnd < ssthresh:
                    # Slow start: the window doubles every RTT (capped at ssthresh).
                    cwnd = min(cwnd * (2.0 ** rtts_elapsed), ssthresh)
                    # If we crossed ssthresh mid-interval, the rest of the time
                    # grows linearly; a small correction that matters for long dt.
                    if cwnd >= ssthresh:
                        cwnd = min(cwnd + cfg.mss_bytes * rtts_elapsed, cfg.max_window_bytes)
                else:
                    # Congestion avoidance: one MSS per RTT.
                    cwnd = min(cwnd + cfg.mss_bytes * rtts_elapsed, cfg.max_window_bytes)

            cwnd = min(max(cwnd, cfg.min_window_segments * cfg.mss_bytes), cfg.max_window_bytes)
            state["cwnd"] = cwnd
            state["ssthresh"] = ssthresh

            demand_bps = cwnd * 8.0 / rtt
            if flow.multiplicity != 1:
                # One window per aggregated session: the aggregate offers N
                # times the per-session window demand.
                demand_bps *= flow.multiplicity
            demand_bps = min(demand_bps, flow.aggregate_app_limit_bps)
            demands[flow.flow_id] = demand_bps

        # 3. The network delivers the max-min share of the offered demands.
        delivered = max_min_shares(flows, demand_caps=demands, cache=self.fabric.incidence)
        self.fabric.set_rates(flows, demands, delivered)

    # -- diagnostics -----------------------------------------------------------------
    @staticmethod
    def window_of(flow: Flow) -> float:
        """Current congestion window of ``flow`` in bytes (0 if unknown)."""
        return float(flow.transport_state.get("cwnd", 0.0))

    @staticmethod
    def losses_of(flow: Flow) -> int:
        """Number of loss events the flow has reacted to."""
        return int(flow.transport_state.get("losses", 0.0))
