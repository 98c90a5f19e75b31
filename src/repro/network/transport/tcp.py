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

Where the state lives: each flow's ``transport_state`` holds ``cwnd``,
``ssthresh``, ``losses``, ``updated_at`` (the time of its last update) and
``base_rtt`` (a copy of ``flow.base_rtt_s``, which the start and reroute
hooks refresh).  Once the fabric's incidence table exists, these keys live
in the table's row columns of the same names (:attr:`TcpTransport.transport_columns`)
and ``transport_state`` is a view onto the flow's row; :meth:`update_rates`
then evolves every window with array operations and hands the demands to
the water-filler as a row-aligned
:class:`~repro.network.fluid_fast.RowRates`.  Before the table exists it
runs the same arithmetic one flow at a time, with the demands in a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.network.flow import Flow
from repro.network.fluid import max_min_shares
from repro.network.fluid_fast import RowRates
from repro.network.incidence import IncidenceTable
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

    #: window, threshold, loss count, time of the last update, and a copy of
    #: ``flow.base_rtt_s`` (refreshed by the start and reroute hooks)
    transport_columns = ("cwnd", "ssthresh", "losses", "updated_at", "base_rtt")

    def __init__(self, config: TcpConfig | None = None) -> None:
        super().__init__()
        self.config = config or TcpConfig()

    # -- lifecycle hooks ------------------------------------------------------------
    def on_flow_start(self, flow: Flow, now: float) -> None:
        cfg = self.config
        state = flow.transport_state
        state["cwnd"] = cfg.initial_window_segments * cfg.mss_bytes
        state["ssthresh"] = min(cfg.initial_ssthresh_bytes, cfg.max_window_bytes)
        state["losses"] = 0.0
        state["updated_at"] = now
        state["base_rtt"] = flow.base_rtt_s

    def on_flow_rerouted(self, flow: Flow, now: float, reason: str = "policy") -> None:
        """A failure reroute is a timeout+reconnect: restart in slow start.

        Policy reroutes (Hedera) are transparent to the endpoints and leave
        the window untouched.  Either way the base-RTT copy follows the new
        path.
        """
        state = flow.transport_state
        state["base_rtt"] = flow.base_rtt_s
        if reason != "failure":
            return
        cfg = self.config
        state["ssthresh"] = max(
            state["cwnd"] * cfg.loss_backoff, cfg.min_window_segments * cfg.mss_bytes
        )
        state["cwnd"] = cfg.initial_window_segments * cfg.mss_bytes
        state["losses"] += 1.0
        state["updated_at"] = now

    # -- rate assignment --------------------------------------------------------------
    def update_rates(self, flows: Sequence[Flow], now: float) -> None:
        # 1. Per flow, the queueing delay along its path and whether a link on
        #    it overflowed since the previous update (the fabric latches buffer
        #    overflows during queue integration; this consumes the latches).
        # 2. Evolve each flow's window into its demand.
        table = self.fabric.table_for(flows)
        if table is None:
            demands = self._flow_demands(flows, now)
        else:
            demands = self._row_demands(flows, now, table)

        # 3. The network delivers the max-min share of the offered demands.
        delivered = max_min_shares(flows, demand_caps=demands, cache=self.fabric.incidence)
        self.fabric.set_rates(flows, demands, delivered)

    def _flow_demands(self, flows: Sequence[Flow], now: float) -> Dict[int, float]:
        """Steps 1 and 2 one flow at a time, before the fabric's table exists."""
        cfg = self.config
        queueing, lossy = self.fabric.path_congestion(flows)
        demands: Dict[int, float] = {}
        for flow, queue_delay, lost in zip(flows, queueing, lossy):
            state = flow.transport_state
            dt = max(0.0, now - state["updated_at"])
            state["updated_at"] = now

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
        return demands

    def _row_demands(self, flows: Sequence[Flow], now: float, table: IncidenceTable) -> RowRates:
        """Steps 1 and 2 as array operations on the row columns of ``table``.

        The arithmetic is :meth:`_flow_demands`' operation for operation, so
        every window and demand has the same bits: numpy's ``+ - * /``,
        ``minimum`` and ``maximum`` round as Python's float operators do.
        The columns are updated in place over every row; dead rows and the
        scratch row hold no flow's state, and their demand is 0.
        """
        cfg = self.config
        floor = cfg.min_window_segments * cfg.mss_bytes
        queueing, lost = self.fabric.path_congestion(flows)
        n = table.num_rows
        live = table.live[:n]
        cwnd = table.cwnd[:n]
        ssthresh = table.ssthresh[:n]
        updated_at = table.updated_at[:n]
        dt = now - updated_at
        np.maximum(dt, 0.0, out=dt)
        updated_at.fill(now)
        rtt = table.base_rtt[:n] + queueing
        np.maximum(rtt, 1e-4, out=rtt)

        grow = dt > 0.0
        grow &= live
        if lost.any():
            # Multiplicative decrease on loss.
            ssthresh[lost] = np.maximum(cwnd[lost] * cfg.loss_backoff, floor)
            cwnd[lost] = np.maximum(ssthresh[lost], floor)
            table.losses[:n][lost] += 1.0
            grow &= ~lost
        rtts_elapsed = dt / rtt
        slow = grow & (cwnd < ssthresh)
        avoid = grow ^ slow
        if slow.any():
            # Slow start, crossing correction included.  2.0 ** x stays
            # Python's: numpy's power and exp2 do not round it the same way.
            rows = np.flatnonzero(slow)
            elapsed = rtts_elapsed[rows]
            doubling = np.array([2.0 ** x for x in elapsed.tolist()])
            cap = ssthresh[rows]
            grown = np.minimum(cwnd[rows] * doubling, cap)
            crossed = grown >= cap
            if crossed.any():
                grown[crossed] = np.minimum(
                    grown[crossed] + cfg.mss_bytes * elapsed[crossed], cfg.max_window_bytes
                )
            cwnd[rows] = grown
        if avoid.any():
            # Congestion avoidance: one MSS per RTT.
            cwnd[avoid] = np.minimum(
                cwnd[avoid] + cfg.mss_bytes * rtts_elapsed[avoid], cfg.max_window_bytes
            )
        np.maximum(cwnd, floor, out=cwnd)
        np.minimum(cwnd, cfg.max_window_bytes, out=cwnd)

        # Times 1.0 is exact, so only aggregates change here.
        demand = cwnd * 8.0 / rtt * table.multiplicity[:n]
        np.minimum(demand, table.app_limit[:n], out=demand)
        return RowRates(table, np.where(live, demand, 0.0))

    # -- diagnostics -----------------------------------------------------------------
    @staticmethod
    def window_of(flow: Flow) -> float:
        """Current congestion window of ``flow`` in bytes (0 if unknown)."""
        return float(flow.transport_state.get("cwnd", 0.0))

    @staticmethod
    def losses_of(flow: Flow) -> int:
        """Number of loss events the flow has reacted to."""
        return int(flow.transport_state.get("losses", 0.0))
