"""Tests for the SCDA explicit-rate transport (with a stub rate provider)."""

import pytest

from repro.network.fabric import FabricSimulator
from repro.network.flow import FlowState
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.network.transport.scda import RateProvider, ScdaTransport
from repro.sim.engine import Simulator

MBPS = 1e6


class StubProvider(RateProvider):
    """Hands every flow the same fixed rate and records lifecycle calls."""

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.started = []
        self.finished = []

    def flow_allocations(self, flows, now):
        return {f.flow_id: self.rate_bps for f in flows}

    def on_flow_start(self, flow, now):
        self.started.append(flow.flow_id)

    def on_flow_finish(self, flow, now):
        self.finished.append(flow.flow_id)


class TestScdaTransport:
    def test_requires_a_provider(self):
        with pytest.raises(ValueError):
            ScdaTransport(None)

    def test_flow_runs_at_the_allocated_rate(self, tiny_line_topology):
        sim = Simulator()
        provider = StubProvider(10 * MBPS)
        fabric = FabricSimulator(sim, tiny_line_topology, ScdaTransport(provider))
        flow = fabric.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 1_250_000.0
        )
        sim.run(until=10.0)
        # 1.25 MB at 10 Mb/s = 1 s.
        assert flow.fct == pytest.approx(1.0, rel=1e-2)

    def test_lifecycle_hooks_reach_the_provider(self, tiny_line_topology):
        sim = Simulator()
        provider = StubProvider(10 * MBPS)
        fabric = FabricSimulator(sim, tiny_line_topology, ScdaTransport(provider))
        flow = fabric.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 1000.0
        )
        sim.run(until=1.0)
        assert provider.started == [flow.flow_id]
        assert provider.finished == [flow.flow_id]

    def test_over_allocation_is_capped_by_capacity(self, tiny_line_topology):
        sim = Simulator()
        # Provider hands out 10x the link capacity; the transport must cap it.
        provider = StubProvider(1000 * MBPS)
        fabric = FabricSimulator(sim, tiny_line_topology, ScdaTransport(provider))
        flow = fabric.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 1_250_000.0
        )
        sim.run(until=10.0)
        assert flow.fct == pytest.approx(0.1, rel=1e-2)

    def test_app_limit_caps_the_allocation(self, tiny_line_topology):
        sim = Simulator()
        provider = StubProvider(100 * MBPS)
        fabric = FabricSimulator(sim, tiny_line_topology, ScdaTransport(provider))
        flow = fabric.start_flow(
            tiny_line_topology.node("ucl-0"),
            tiny_line_topology.node("bs-0"),
            1_250_000.0,
            app_limit_bps=5 * MBPS,
        )
        sim.run(until=10.0)
        assert flow.fct == pytest.approx(2.0, rel=1e-2)

    def test_reservation_floor_is_respected(self, tiny_line_topology):
        sim = Simulator()
        # Provider gives almost nothing, but the flow reserved 20 Mb/s.
        provider = StubProvider(0.01 * MBPS)
        fabric = FabricSimulator(sim, tiny_line_topology, ScdaTransport(provider))
        flow = fabric.start_flow(
            tiny_line_topology.node("ucl-0"),
            tiny_line_topology.node("bs-0"),
            1_250_000.0,
            min_rate_bps=20 * MBPS,
        )
        sim.run(until=10.0)
        assert flow.fct == pytest.approx(0.5, rel=1e-2)


class TestIdealTransport:
    def test_two_flows_finish_simultaneously(self, tiny_line_topology):
        sim = Simulator()
        fabric = FabricSimulator(sim, tiny_line_topology, IdealMaxMinTransport())
        f1 = fabric.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 500_000.0
        )
        f2 = fabric.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 500_000.0
        )
        sim.run(until=5.0)
        assert f1.state is FlowState.FINISHED and f2.state is FlowState.FINISHED
        assert f1.fct == pytest.approx(f2.fct, rel=1e-6)
