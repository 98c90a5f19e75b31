"""SCDA explicit-rate transport.

Section VIII of the paper: every sender sets ``cwnd = R_u × RTT`` and every
receiver sets ``rcvw = R_d × RTT`` where ``R_u``/``R_d`` are the uplink and
downlink rates allocated by the RM/RA hierarchy; the effective sending rate is
therefore ``min(R_u, R_d, R_e2e, R_other)`` — no probing, no slow start.

The transport delegates the per-flow allocation to a :class:`RateProvider`
(implemented by :class:`repro.core.controller.ScdaController`); this module
only turns allocations into demand/delivered rates and keeps the fabric
interface uniform with the TCP baseline.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.network.flow import Flow
from repro.network.fluid import max_min_shares
from repro.network.transport.base import TransportModel


class RateProvider:
    """Protocol for anything that can hand out per-flow rate allocations."""

    def flow_allocations(self, flows: Sequence[Flow], now: float) -> Mapping[int, float]:
        """Return ``flow_id -> allocated rate`` in bits/s."""
        raise NotImplementedError

    def on_flow_start(self, flow: Flow, now: float) -> None:
        """Hook: a flow joined the network."""

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        """Hook: a flow left the network."""


class ScdaTransport(TransportModel):
    """Explicit-rate transport driven by the SCDA RM/RA allocation.

    The delivered rates are the allocations passed through the max-min
    water-filler with the allocations as caps.  The converged SCDA allocation
    is already feasible, but during the first control interval after a burst
    of arrivals the previous-round effective flow count can transiently
    oversubscribe a link — exactly the situation the ``βQ/d`` term of
    equation 2 corrects — and the physical network can of course never
    deliver more than capacity.  The attached fabric's incidence cache is
    passed along, so at scale this pass runs vectorized over the cached
    link×flow incidence.

    Parameters
    ----------
    provider:
        The rate provider (normally the SCDA controller).
    """

    name = "scda"

    def __init__(self, provider: RateProvider) -> None:
        super().__init__()
        if provider is None:
            raise ValueError("ScdaTransport requires a RateProvider")
        self.provider = provider

    def on_flow_start(self, flow: Flow, now: float) -> None:
        self.provider.on_flow_start(flow, now)

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        self.provider.on_flow_finish(flow, now)

    def update_rates(self, flows: Sequence[Flow], now: float) -> None:
        allocations = dict(self.provider.flow_allocations(flows, now))
        demands: Dict[int, float] = {}
        for flow in flows:
            allocated = float(allocations.get(flow.flow_id, 0.0))
            # R_other / application limits (equation: R_j = min(R_send,other, R_e2e, R_recv,other)).
            # Rates are aggregate across a flow's sessions, so the per-session
            # limits scale by multiplicity.
            allocated = min(allocated, flow.aggregate_app_limit_bps)
            # An explicit reservation is a floor on the allocation.
            if flow.min_rate_bps > 0.0:
                allocated = max(allocated, flow.aggregate_min_rate_bps)
            demands[flow.flow_id] = max(allocated, 0.0)

        cache = getattr(self.fabric, "incidence", None)
        delivered = max_min_shares(flows, demand_caps=demands, cache=cache)
        self.fabric.set_rates(flows, demands, delivered)
