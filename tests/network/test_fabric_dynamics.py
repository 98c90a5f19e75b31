"""Tests for the fabric's runtime topology-mutation API."""

import pytest

from repro.network.fabric import FabricSimulator
from repro.network.flow import FlowState
from repro.network.leafspine import build_leaf_spine
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.network.transport.tcp import TcpTransport
from repro.sim.engine import Simulator

MBPS = 1e6


def leafspine_stack(transport=None):
    topo = build_leaf_spine(num_spines=2, num_leaves=2, hosts_per_leaf=2,
                            num_clients=2)
    sim = Simulator()
    fabric = FabricSimulator(sim, topo, transport or IdealMaxMinTransport())
    return sim, topo, fabric


def spine_leaf_link(topo, spine_id, leaf_id):
    return topo.find_link(topo.node(spine_id), topo.node(leaf_id))


class TestFailLink:
    def test_stranded_flow_reroutes_onto_surviving_path(self):
        sim, topo, fabric = leafspine_stack()
        client = topo.clients()[0]          # attached to spine-0
        host = topo.hosts()[0]              # under leaf-0
        flow = fabric.start_flow(client, host, 50e6)
        crossed = {l.link_id for l in flow.path}
        down = spine_leaf_link(topo, "spine-0", "leaf-0")
        assert down.link_id in crossed

        aborted = fabric.fail_link(down)
        assert aborted == []
        assert flow.state is FlowState.ACTIVE
        assert down.link_id not in {l.link_id for l in flow.path}
        assert all(l.up for l in flow.path)
        assert fabric.flows_rerouted_on_failure == 1
        assert fabric.links_down == 1

        sim.run(until=60.0)
        assert flow.state is FlowState.FINISHED

    def test_flow_with_no_surviving_path_is_aborted(self, small_tree):
        sim = Simulator()
        fabric = FabricSimulator(sim, small_tree, IdealMaxMinTransport())
        host = small_tree.hosts()[0]
        client = small_tree.clients()[0]
        flow = fabric.start_flow(client, host, 10e6)
        # The tree has a single path; the host's access link is fatal.
        uplink = small_tree.downlink_to(host)
        aborted = fabric.fail_link(uplink)
        assert aborted == [flow]
        assert flow.state is FlowState.ABORTED
        assert fabric.flows_aborted_on_failure == 1
        assert fabric.active_flow_count == 0

    def test_abort_callback_fires(self, small_tree):
        sim = Simulator()
        fabric = FabricSimulator(sim, small_tree, IdealMaxMinTransport())
        seen = []
        fabric.on_flow_aborted(lambda flow, now: seen.append(flow.flow_id))
        host = small_tree.hosts()[0]
        flow = fabric.start_flow(small_tree.clients()[0], host, 10e6)
        fabric.fail_link(small_tree.downlink_to(host))
        assert seen == [flow.flow_id]

    def test_fail_is_idempotent(self):
        sim, topo, fabric = leafspine_stack()
        link = spine_leaf_link(topo, "spine-0", "leaf-0")
        fabric.fail_link(link)
        fabric.fail_link(link)
        assert fabric.link_failures == 1

    def test_new_flows_avoid_the_down_link(self):
        sim, topo, fabric = leafspine_stack()
        down = spine_leaf_link(topo, "spine-0", "leaf-0")
        fabric.fail_link(down)
        flow = fabric.start_flow(topo.clients()[0], topo.hosts()[0], 1e6)
        assert down.link_id not in {l.link_id for l in flow.path}


class TestRestoreLink:
    def test_restore_clears_state_and_reopens_routing(self):
        sim, topo, fabric = leafspine_stack()
        link = spine_leaf_link(topo, "spine-0", "leaf-0")
        fabric.fail_link(link)
        link.queue_bytes = 123.0
        fabric.restore_link(link)
        assert link.up
        assert link.queue_bytes == 0.0
        assert fabric.links_down == 0
        assert fabric.link_recoveries == 1
        # Routing sees the restored link again (shortest path is direct).
        flow = fabric.start_flow(topo.clients()[0], topo.hosts()[0], 1e6)
        assert len(flow.path) == 3

    def test_restore_is_idempotent(self):
        sim, topo, fabric = leafspine_stack()
        link = spine_leaf_link(topo, "spine-0", "leaf-0")
        fabric.restore_link(link)
        assert fabric.link_recoveries == 0


class TestSetLinkCapacity:
    def test_capacity_change_slows_delivered_rate(self):
        sim, topo, fabric = leafspine_stack()
        host = topo.hosts()[0]
        flow = fabric.start_flow(topo.clients()[0], host, 1e9)
        full_rate = flow.current_rate_bps
        access = topo.downlink_to(host)
        fabric.set_link_capacity(access, access.nominal_capacity_bps * 0.1)
        assert flow.current_rate_bps == pytest.approx(full_rate * 0.1, rel=1e-6)
        fabric.set_link_capacity(access, access.nominal_capacity_bps)
        assert flow.current_rate_bps == pytest.approx(full_rate, rel=1e-6)
        assert fabric.capacity_changes == 2

    def test_nonpositive_capacity_rejected(self):
        sim, topo, fabric = leafspine_stack()
        with pytest.raises(ValueError):
            fabric.set_link_capacity(topo.links[0], 0.0)

    def test_nan_capacity_rejected(self):
        sim, topo, fabric = leafspine_stack()
        link = topo.links[0]
        before = link.capacity_bps
        with pytest.raises(ValueError):
            fabric.set_link_capacity(link, float("nan"))
        assert link.capacity_bps == before and fabric.capacity_changes == 0

    def test_topology_change_callback_fires(self):
        sim, topo, fabric = leafspine_stack()
        seen = []
        fabric.on_topology_changed(lambda event, link, now: seen.append(event))
        link = spine_leaf_link(topo, "spine-0", "leaf-0")
        fabric.set_link_capacity(link, 1 * MBPS)
        fabric.fail_link(link)
        fabric.restore_link(link)
        assert seen == ["link-capacity", "link-failed", "link-restored"]
        fabric.remove_topology_changed_callback(seen.append)  # unknown: no-op


class TestCallbackSymmetry:
    """The satellite fix: every callback register has a matching remove."""

    def test_remove_flow_started_callback(self, small_tree):
        sim = Simulator()
        fabric = FabricSimulator(sim, small_tree, IdealMaxMinTransport())
        seen = []

        def observer(flow, now):
            seen.append(flow.flow_id)

        fabric.on_flow_started(observer)
        fabric.start_flow(small_tree.clients()[0], small_tree.hosts()[0], 1e6)
        assert len(seen) == 1
        fabric.remove_flow_started_callback(observer)
        fabric.start_flow(small_tree.clients()[1], small_tree.hosts()[1], 1e6)
        assert len(seen) == 1
        # Removing twice is a documented no-op.
        fabric.remove_flow_started_callback(observer)

    def test_remove_flow_aborted_callback(self, small_tree):
        sim = Simulator()
        fabric = FabricSimulator(sim, small_tree, IdealMaxMinTransport())
        seen = []

        def observer(flow, now):
            seen.append(flow.flow_id)

        fabric.on_flow_aborted(observer)
        fabric.remove_flow_aborted_callback(observer)
        flow = fabric.start_flow(small_tree.clients()[0], small_tree.hosts()[0], 1e6)
        fabric.abort_flow(flow)
        assert seen == []


class TestTransportRerouteHook:
    def test_tcp_restarts_slow_start_on_failure_reroute(self):
        transport = TcpTransport()
        sim, topo, fabric = leafspine_stack(transport)
        client = topo.clients()[0]
        host = topo.hosts()[0]
        flow = fabric.start_flow(client, host, 500e6)
        sim.run(until=2.0)  # let the window grow past the initial value
        initial = transport.config.initial_window_segments * transport.config.mss_bytes
        grown = flow.transport_state["cwnd"]
        assert grown > initial

        down = spine_leaf_link(topo, "spine-0", "leaf-0")
        if down.link_id not in {l.link_id for l in flow.path}:
            down = spine_leaf_link(topo, "spine-1", "leaf-0")
        fabric.fail_link(down)
        assert flow.state is FlowState.ACTIVE
        assert flow.transport_state["cwnd"] == pytest.approx(initial)
        assert flow.transport_state["ssthresh"] >= initial

    @pytest.mark.parametrize("reason", ["policy", "failure"])
    def test_reroute_over_a_failed_link_is_refused(self, reason):
        transport = TcpTransport()
        sim, topo, fabric = leafspine_stack(transport)
        src, dst = topo.node("bs-0-0"), topo.node("bs-1-0")

        def via(spine):
            hops = [src, topo.node("leaf-0"), topo.node(spine), topo.node("leaf-1"), dst]
            return [topo.find_link(a, b) for a, b in zip(hops, hops[1:])]

        flow = fabric.start_flow(src, dst, 500e6, path=via("spine-0"))
        sim.run(until=0.5)
        down = topo.find_link(topo.node("leaf-0"), topo.node("spine-1"))
        fabric.fail_link(down)
        path, rate = list(flow.path), flow.current_rate_bps
        carried = down.bytes_carried

        with pytest.raises(ValueError, match="failed link"):
            fabric.reroute_flow(flow, via("spine-1"), reason=reason)
        assert flow.path == path
        assert flow.current_rate_bps == rate
        sim.run(until=1.0)
        assert flow.path == path
        assert down.bytes_carried == carried

    def test_policy_reroute_keeps_the_window(self):
        transport = TcpTransport()
        sim, topo, fabric = leafspine_stack(transport)
        flow = fabric.start_flow(topo.clients()[0], topo.hosts()[0], 500e6)
        sim.run(until=2.0)
        before = flow.transport_state["cwnd"]
        fabric.reroute_flow(flow, list(flow.path))  # default reason="policy"
        assert flow.transport_state["cwnd"] == before


class TestFailureChurnBatching:
    def test_fail_link_recomputes_exactly_once(self):
        """A failure that reroutes several flows is one allocation event."""
        sim, topo, fabric = leafspine_stack()
        client = topo.clients()[0]
        host = topo.hosts()[0]
        flows = [fabric.start_flow(client, host, 50e6) for _ in range(4)]
        down = spine_leaf_link(topo, "spine-0", "leaf-0")
        before = fabric.recomputes
        fabric.fail_link(down)
        assert fabric.recomputes == before + 1
        assert all(f.state is FlowState.ACTIVE for f in flows)

    def test_failure_inside_explicit_churn_still_recomputes_once(self):
        sim, topo, fabric = leafspine_stack()
        client = topo.clients()[0]
        host = topo.hosts()[0]
        fabric.start_flow(client, host, 50e6)
        down = spine_leaf_link(topo, "spine-0", "leaf-0")
        before = fabric.recomputes
        with fabric.churn():
            fabric.start_flow(client, host, 10e6)
            fabric.fail_link(down)
            fabric.start_flow(client, host, 20e6)
        assert fabric.recomputes == before + 1

    def test_link_failure_mid_churn_is_deterministic(self):
        """The same scripted failure-under-churn run twice gives the same bits.

        This is the dynamics edge case for the incremental solver: a link
        failure changes the link set mid-batch (forcing re-routes and a full
        coverage of the dirty region), simultaneous arrivals coalesce into
        the same recompute, and a later restore brings the link back.
        """

        def scripted_run():
            sim, topo, fabric = leafspine_stack()
            client = topo.clients()[0]
            host = topo.hosts()[0]
            flows = [fabric.start_flow(client, host, 20e6 + 1e6 * i) for i in range(6)]
            down = spine_leaf_link(topo, "spine-0", "leaf-0")

            def mid_churn():
                with fabric.churn():
                    flows.append(fabric.start_flow(client, host, 5e6))
                    fabric.fail_link(down)
                    flows.append(fabric.start_flow(client, host, 7e6))

            sim.call_at(0.5, mid_churn)
            sim.call_at(2.0, fabric.restore_link, down)
            sim.run(until=60.0)
            return fabric, flows

        fabric_a, flows_a = scripted_run()
        fabric_b, flows_b = scripted_run()
        assert all(f.state is FlowState.FINISHED for f in flows_a)
        assert [f.finished_at for f in flows_a] == [f.finished_at for f in flows_b]
        assert [f.remaining_bytes for f in flows_a] == [
            f.remaining_bytes for f in flows_b
        ]
        assert fabric_a.total_bytes_delivered == fabric_b.total_bytes_delivered
        assert fabric_a.recomputes == fabric_b.recomputes
        assert fabric_a.recomputes_coalesced == fabric_b.recomputes_coalesced
