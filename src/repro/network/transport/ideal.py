"""Oracle transport: instantaneous centralised max-min allocation.

This is not part of the paper; it is an upper bound used by the tests and the
ablation benchmarks.  Every recompute point the allocation jumps straight to
the weighted max-min fair rates with full knowledge of all flows — the best
any distributed scheme (including SCDA) can converge to.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.flow import Flow
from repro.network.fluid import max_min_shares
from repro.network.transport.base import TransportModel


class IdealMaxMinTransport(TransportModel):
    """Centralised, instantaneous, weighted max-min fair allocation."""

    name = "ideal-maxmin"

    def update_rates(self, flows: Sequence[Flow], now: float) -> None:
        rates = max_min_shares(flows, cache=self.fabric.incidence)
        # Sources offer exactly their allocation.  At scale ``rates`` is the
        # incremental solver's row-aligned vector, written in one go.
        self.fabric.set_rates(flows, rates, rates)
