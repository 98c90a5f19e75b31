"""Tests for flow objects."""

import pytest

from repro.network.flow import Flow, FlowKind, FlowState
from repro.network.routing import Router

MBPS = 1e6


def make_flow(topo, size=1_000_000.0, src="ucl-0", dst="bs-0", **kw):
    router = Router(topo)
    s, d = topo.node(src), topo.node(dst)
    return Flow(s, d, size, router.path(s, d), **kw)


class TestFlowConstruction:
    def test_initial_state(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        assert flow.state is FlowState.PENDING
        assert flow.remaining_bytes == flow.size_bytes
        assert flow.transferred_bytes == 0.0

    def test_base_rtt_is_twice_forward_delay(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        assert flow.base_rtt_s == pytest.approx(2 * (0.001 + 0.001))

    def test_invalid_size_raises(self, tiny_line_topology):
        with pytest.raises(ValueError):
            make_flow(tiny_line_topology, size=0.0)

    def test_invalid_priority_raises(self, tiny_line_topology):
        with pytest.raises(ValueError):
            make_flow(tiny_line_topology, priority_weight=0.0)

    def test_negative_reservation_raises(self, tiny_line_topology):
        with pytest.raises(ValueError):
            make_flow(tiny_line_topology, min_rate_bps=-1.0)

    @pytest.mark.parametrize(
        "field", ["size", "priority_weight", "min_rate_bps", "app_limit_bps"]
    )
    def test_nan_raises(self, tiny_line_topology, field):
        with pytest.raises(ValueError):
            make_flow(tiny_line_topology, **{field: float("nan")})

    def test_flow_ids_are_unique(self, tiny_line_topology):
        a = make_flow(tiny_line_topology)
        b = make_flow(tiny_line_topology)
        assert a.flow_id != b.flow_id


class TestFlowProgress:
    def test_advance_delivers_rate_times_dt(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology, size=1_000_000.0)
        flow.start(0.0)
        flow.current_rate_bps = 8e6  # 1 MB/s
        delivered = flow.advance(0.25)
        assert delivered == pytest.approx(250_000.0)
        assert flow.remaining_bytes == pytest.approx(750_000.0)
        assert flow.completion_fraction == pytest.approx(0.25)

    def test_advance_never_overshoots(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology, size=1000.0)
        flow.start(0.0)
        flow.current_rate_bps = 8e9
        delivered = flow.advance(10.0)
        assert delivered == pytest.approx(1000.0)
        assert flow.remaining_bytes == 0.0

    def test_advance_before_start_is_noop(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.current_rate_bps = 8e6
        assert flow.advance(1.0) == 0.0

    def test_negative_dt_raises(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.start(0.0)
        with pytest.raises(ValueError):
            flow.advance(-0.1)

    def test_time_to_complete(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology, size=1_000_000.0)
        flow.start(0.0)
        flow.current_rate_bps = 8e6
        assert flow.time_to_complete() == pytest.approx(1.0)

    def test_time_to_complete_with_zero_rate_is_infinite(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.start(0.0)
        assert flow.time_to_complete() == float("inf")

    def test_double_start_raises(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.start(0.0)
        with pytest.raises(RuntimeError):
            flow.start(1.0)


class TestFlowCompletion:
    def test_finish_records_fct(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology, created_at=1.0)
        flow.start(1.5)
        flow.finish(3.0)
        assert flow.state is FlowState.FINISHED
        assert flow.fct == pytest.approx(2.0)
        assert flow.current_rate_bps == 0.0

    def test_fct_is_none_until_finished(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        assert flow.fct is None

    def test_abort(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.start(0.0)
        flow.abort(2.0)
        assert flow.state is FlowState.ABORTED

    def test_abort_after_finish_raises(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        flow.start(0.0)
        flow.finish(1.0)
        with pytest.raises(RuntimeError):
            flow.abort(2.0)

    def test_rtt_estimate_includes_queueing_delay(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        link = flow.path[0]
        link.integrate_queue(2 * link.capacity_bps, 0.1)  # build a backlog
        assert flow.rtt_estimate() > flow.base_rtt_s

    def test_uses_link(self, tiny_line_topology):
        flow = make_flow(tiny_line_topology)
        assert flow.uses_link(flow.path[0])
        other = tiny_line_topology.find_link(
            tiny_line_topology.node("sw"), tiny_line_topology.node("ucl-0")
        )
        assert not flow.uses_link(other)

    def test_kind_defaults_to_data(self, tiny_line_topology):
        assert make_flow(tiny_line_topology).kind is FlowKind.DATA
