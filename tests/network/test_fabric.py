"""Tests for the event-driven fabric simulator."""

import numpy as np
import pytest

from repro.network.fabric import FabricConfig, FabricSimulator
from repro.network.flow import BoundFlow, Flow, FlowKind, FlowState
from repro.network.fluid import AUTO_NUMPY_MIN_FLOWS
from repro.network.leafspine import build_leaf_spine
from repro.network.topology import BoundLink, Link, Topology
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.network.transport.tcp import TcpTransport
from repro.sim.engine import Simulator

from maxmin_reference import max_min_shares_reference

MBPS = 1e6


@pytest.fixture
def ideal_fabric(tiny_line_topology):
    sim = Simulator()
    fabric = FabricSimulator(sim, tiny_line_topology, IdealMaxMinTransport())
    return sim, tiny_line_topology, fabric


class TestSingleFlow:
    def test_completion_time_matches_capacity(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        sim.run(until=10.0)
        # 1.25 MB over 100 Mb/s = 0.1 s
        assert flow.state is FlowState.FINISHED
        assert flow.fct == pytest.approx(0.1, rel=1e-3)

    def test_flow_records_appear_in_finished_list(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1000.0)
        sim.run(until=1.0)
        assert flow in fabric.finished_flows
        assert fabric.active_flow_count == 0

    def test_created_at_override_affects_fct(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        sim.run(until=2.0)
        flow = fabric.start_flow(
            topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0, created_at=1.0
        )
        sim.run(until=10.0)
        assert flow.fct == pytest.approx(1.0 + 0.1, rel=1e-3)

    def test_total_bytes_delivered_accumulates(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 500_000.0)
        fabric.start_flow(topo.node("bs-0"), topo.node("ucl-0"), 250_000.0)
        sim.run(until=10.0)
        assert fabric.total_bytes_delivered == pytest.approx(750_000.0, rel=1e-6)

    def test_same_src_dst_raises(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        with pytest.raises(ValueError):
            fabric.start_flow(topo.node("bs-0"), topo.node("bs-0"), 1000.0)

    def test_callbacks_fire_on_start_and_finish(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        events = []
        fabric.on_flow_started(lambda f, now: events.append(("start", now)))
        fabric.on_flow_finished(lambda f, now: events.append(("finish", now)))
        fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        sim.run(until=10.0)
        assert events[0][0] == "start"
        assert events[-1][0] == "finish"
        assert events[-1][1] == pytest.approx(0.1, rel=1e-3)


class TestSharing:
    def test_two_flows_on_same_link_take_twice_as_long(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        f1 = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        f2 = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        sim.run(until=10.0)
        assert f1.fct == pytest.approx(0.2, rel=1e-2)
        assert f2.fct == pytest.approx(0.2, rel=1e-2)

    def test_later_arrival_shares_fairly(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        f1 = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        sim.call_at(0.05, lambda: fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 625_000.0))
        sim.run(until=10.0)
        # f1 runs alone for 0.05 s (half done), then shares; both finish at 0.15.
        assert f1.fct == pytest.approx(0.15, rel=1e-2)

    def test_opposite_directions_do_not_contend(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        f1 = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1_250_000.0)
        f2 = fabric.start_flow(topo.node("bs-0"), topo.node("ucl-0"), 1_250_000.0)
        sim.run(until=10.0)
        assert f1.fct == pytest.approx(0.1, rel=1e-2)
        assert f2.fct == pytest.approx(0.1, rel=1e-2)

    def test_flows_on_link_query(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1e9)
        link = flow.path[0]
        assert fabric.flows_on_link(link) == [flow]


class TestControl:
    def test_abort_flow_removes_it(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1e9)
        sim.run(until=0.05)
        fabric.abort_flow(flow)
        sim.run(until=1.0)
        assert flow.state is FlowState.ABORTED
        assert fabric.active_flow_count == 0

    def test_reroute_requires_active_flow(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1000.0)
        sim.run(until=1.0)
        with pytest.raises(RuntimeError):
            fabric.reroute_flow(flow, flow.path)

    def test_drain_runs_until_all_flows_finish(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        f1 = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 2_500_000.0)
        fabric.drain()
        assert f1.state is FlowState.FINISHED

    def test_max_active_flows_guard(self, tiny_line_topology):
        sim = Simulator()
        fabric = FabricSimulator(
            sim,
            tiny_line_topology,
            IdealMaxMinTransport(),
            config=FabricConfig(max_active_flows=1),
        )
        fabric.start_flow(tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 1e9)
        with pytest.raises(RuntimeError):
            fabric.start_flow(
                tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), 1e9
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FabricConfig(control_interval_s=0.0)
        with pytest.raises(ValueError):
            FabricConfig(completion_tolerance_bytes=-1.0)

    @pytest.mark.parametrize("field, message", [
        ("control_interval_s", "control_interval_s must be positive"),
        ("completion_tolerance_bytes", "completion_tolerance_bytes must be non-negative"),
    ])
    def test_nan_config_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            FabricConfig(**{field: float("nan")})

    def test_recompute_timer_is_live_or_cleared_at_every_rearm(self, ideal_fabric):
        """A start re-arms the recompute timer by cancelling the previous one,
        which a fired event refuses: the timer clears its handle as it fires,
        before the completions it finds start flows of their own."""
        sim, topo, fabric = ideal_fabric
        client, host = topo.node("ucl-0"), topo.node("bs-0")
        states = []

        def start(size):
            ev = fabric._next_recompute_event
            states.append("cleared" if ev is None else "pending" if ev.pending else "spent")
            fabric.start_flow(client, host, size)

        def chain(flow, now):
            if len(states) < 40:
                start(2e5)

        fabric.on_flow_finished(chain)
        start(5e6)
        for k in range(1, 20):
            sim.call_at(k * 0.005, start, 1e5)
        fabric.drain()
        assert len(states) == 40
        assert set(states) == {"cleared", "pending"}
        assert fabric._next_recompute_event is None
        assert fabric.active_flow_count == 0


class TestTcpFabricIntegration:
    def test_tcp_flow_completes_and_is_slower_than_ideal(self, tiny_line_topology):
        size = 2_500_000.0
        sim_ideal = Simulator()
        fabric_ideal = FabricSimulator(sim_ideal, tiny_line_topology, IdealMaxMinTransport())
        ideal_flow = fabric_ideal.start_flow(
            tiny_line_topology.node("ucl-0"), tiny_line_topology.node("bs-0"), size
        )
        sim_ideal.run(until=30.0)

        from repro.network.tree import build_tree_topology, TreeTopologyConfig

        # A fresh copy of the topology so link state does not leak between runs.
        sim_tcp = Simulator()
        topo2_cfg = TreeTopologyConfig(
            base_bandwidth_bps=100 * MBPS, num_agg=1, racks_per_agg=1, hosts_per_rack=1, num_clients=1
        )
        topo2 = build_tree_topology(topo2_cfg)
        fabric_tcp = FabricSimulator(sim_tcp, topo2, TcpTransport())
        tcp_flow = fabric_tcp.start_flow(topo2.clients()[0], topo2.hosts()[0], size)
        sim_tcp.run(until=60.0)

        assert ideal_flow.state is FlowState.FINISHED
        assert tcp_flow.state is FlowState.FINISHED
        # Slow start means TCP takes strictly longer than the fluid optimum.
        assert tcp_flow.fct > ideal_flow.fct


class TestChurnBatching:
    def test_churn_context_coalesces_recomputes(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        client, host = topo.clients()[0], topo.hosts()[0]
        before = fabric.recomputes
        with fabric.churn():
            for _ in range(10):
                fabric.start_flow(client, host, 1e6)
        assert fabric.recomputes == before + 1
        assert fabric.recomputes_coalesced >= 10

    def test_nested_churn_recomputes_once_at_outermost_exit(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        client, host = topo.clients()[0], topo.hosts()[0]
        before = fabric.recomputes
        with fabric.churn():
            fabric.start_flow(client, host, 1e6)
            with fabric.churn():
                fabric.start_flow(client, host, 1e6)
            # Inner exit must not recompute: still inside the outer batch.
            assert fabric.recomputes == before
        assert fabric.recomputes == before + 1

    def test_batched_arrivals_reach_same_rates_as_unbatched(self, tiny_line_topology):
        import copy

        def run(batched):
            topo = copy.deepcopy(tiny_line_topology)
            sim = Simulator()
            fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
            client, host = topo.clients()[0], topo.hosts()[0]
            if batched:
                with fabric.churn():
                    flows = [fabric.start_flow(client, host, 1e7) for _ in range(5)]
            else:
                flows = [fabric.start_flow(client, host, 1e7) for _ in range(5)]
            sim.run(until=3.0)
            return fabric, flows

        fabric_a, flows_a = run(batched=False)
        fabric_b, flows_b = run(batched=True)
        assert [f.current_rate_bps for f in flows_a] == [
            f.current_rate_bps for f in flows_b
        ]
        assert [f.remaining_bytes for f in flows_a] == [
            f.remaining_bytes for f in flows_b
        ]
        assert fabric_a.total_bytes_delivered == pytest.approx(
            fabric_b.total_bytes_delivered, rel=1e-12
        )


class TestAbortFlow:
    def test_abort_of_a_flow_completing_at_that_instant_is_a_noop(self):
        topo = Topology("line")
        a, b = topo.add_host("a"), topo.add_host("b")
        topo.add_duplex_link(a, b, 8e6, 0.001)
        sim = Simulator()
        fabric = FabricSimulator(
            sim, topo, IdealMaxMinTransport(), config=FabricConfig(control_interval_s=10.0)
        )
        aborted = []
        fabric.on_flow_aborted(lambda f, now: aborted.append(f))
        holder = {}
        # Queued before the flow starts, so it runs ahead of the fabric's
        # completion recompute at t=1.0; its own advance completes the flow.
        sim.call_at(1.0, lambda: fabric.abort_flow(holder["flow"]))
        holder["flow"] = flow = fabric.start_flow(a, b, 1e6)  # 8 Mbit at 8 Mb/s
        sim.run(until=2.0)
        assert flow.state is FlowState.FINISHED
        assert flow.finished_at == 1.0
        assert aborted == []
        assert fabric.active_flow_count == 0

    def test_second_abort_is_a_noop(self, ideal_fabric):
        sim, topo, fabric = ideal_fabric
        aborted = []
        fabric.on_flow_aborted(lambda f, now: aborted.append(f))
        flow = fabric.start_flow(topo.node("ucl-0"), topo.node("bs-0"), 1e9)
        sim.run(until=0.05)
        fabric.abort_flow(flow)
        recomputes = fabric.recomputes
        fabric.abort_flow(flow)
        assert aborted == [flow]
        assert fabric.recomputes == recomputes
        assert flow.state is FlowState.ABORTED


def _detached_flow(flow):
    """An unbound copy of ``flow``'s advance state."""
    copy = Flow(flow.src, flow.dst, flow.size_bytes, [], multiplicity=flow.multiplicity)
    copy.start(0.0)
    copy.remaining_bytes = flow.remaining_bytes
    copy.current_rate_bps = flow.current_rate_bps
    return copy


def _detached_link(link):
    """An unbound copy of ``link``'s queue state."""
    copy = Link(link.src, link.dst, link.capacity_bps, link.delay_s, link.buffer_bytes)
    copy.queue_bytes = link.queue_bytes
    copy.bytes_carried = link.bytes_carried
    copy.loss_events = link.loss_events
    copy._loss_in_interval = link._loss_in_interval
    return copy


class ReferenceAdvance:
    """Checks every fabric advance against a per-flow reference.

    Before each advance the active flows and every link are copied into
    unbound handles and advanced with :meth:`Flow.advance` and
    :meth:`Link.integrate_queue`; afterwards the fabric must hold exactly
    the same values.  Below 64 active flows each link adds up its offered
    load in active order and ``total_bytes_delivered`` adds the per-flow
    amounts one by one; from 64 up links add up in incidence-table row order
    (cache order, which a reroute makes differ from active order) and the
    total takes one numpy (pairwise) sum.
    """

    def __init__(self, fabric):
        self.fabric = fabric
        self.flow_counts = set()
        #: backlogged links that carried nothing during an advance
        self.drained = 0
        self._advance = fabric._advance_to
        fabric._advance_to = self._checked_advance

    def _reference(self, dt):
        fabric = self.fabric
        flows = list(fabric.active_flows)
        copies = [_detached_flow(f) for f in flows]
        links = {l.link_id: _detached_link(l) for l in fabric.topology.links}
        offered = {}
        for flow in flows if len(flows) < 64 else fabric.incidence.flows:
            if flow.demand_rate_bps <= 0:
                continue
            for link in flow.path:
                offered[link.link_id] = offered.get(link.link_id, 0.0) + flow.demand_rate_bps
        for link_id, link in links.items():
            if link_id in offered:
                link.integrate_queue(offered[link_id], dt)
            elif link.queue_bytes > 0.0:
                link.integrate_queue(0.0, dt)
                self.drained += 1
        delivered = [copy.advance(dt) for copy in copies]
        total = fabric.total_bytes_delivered
        if len(flows) < 64:
            for value in delivered:
                total += value
        else:
            total += float(np.array(delivered).sum())
        return flows, copies, links, total

    def _checked_advance(self, now):
        fabric = self.fabric
        dt = now - fabric._last_advance
        if dt <= 0.0 or not fabric.active_flow_count:
            self._advance(now)
            return
        flows, copies, links, total = self._reference(dt)
        finished_before = len(fabric.finished_flows)
        self._advance(now)
        tolerance = fabric.config.completion_tolerance_bytes
        done = [f for f, c in zip(flows, copies) if c.remaining_bytes <= tolerance]
        assert fabric.finished_flows[finished_before:] == done
        for flow, copy in zip(flows, copies):
            if copy.remaining_bytes <= tolerance:
                assert (flow.state, flow.finished_at) == (FlowState.FINISHED, now)
            else:
                assert flow.state is FlowState.ACTIVE
                assert flow.remaining_bytes == copy.remaining_bytes
        for link in fabric.topology.links:
            ref = links[link.link_id]
            assert (
                link.queue_bytes, link.bytes_carried, link.loss_events, link._loss_in_interval
            ) == (ref.queue_bytes, ref.bytes_carried, ref.loss_events, ref._loss_in_interval)
        assert fabric.total_bytes_delivered == total
        self.flow_counts.add(len(flows))


def _cross_leaf_path(topo, src, dst, spine):
    """host -> leaf -> spine -> leaf -> host."""
    src_leaf = topo.node(f"leaf-{src.attrs['rack']}")
    dst_leaf = topo.node(f"leaf-{dst.attrs['rack']}")
    hops = [src, src_leaf, topo.node(f"spine-{spine}"), dst_leaf, dst]
    return [topo.find_link(a, b) for a, b in zip(hops, hops[1:])]


def _columnar_run(num_flows, transport, prebuilt, buffer_bytes=None, until=0.3, fail_at=None):
    """A leaf-spine run of ``num_flows`` mostly long-lived flows (some short,
    some aggregates), with three flows rerouted a third of the way in and
    every flow from the first host aborted once its uplink holds a backlog
    after half-time, or at two thirds at the latest (the uplink then
    drains).  With ``fail_at``, the first leaf's uplink to the second spine
    fails then, and the flows crossing it are rerouted over the first."""
    topo = build_leaf_spine(
        num_spines=2, num_leaves=2, hosts_per_leaf=3, buffer_bytes=buffer_bytes
    )
    # The second spine's links are slower, so moving a flow from one spine
    # to the other changes its base RTT.
    for link in topo.links:
        if "spine-1" in (link.src.node_id, link.dst.node_id):
            link.delay_s = 0.003
    sim = Simulator()
    fabric = FabricSimulator(sim, topo, transport)
    reference = ReferenceAdvance(fabric)
    if prebuilt:
        fabric.incidence.table()
    left = [h for h in topo.hosts() if h.attrs["rack"] == "0"]
    right = [h for h in topo.hosts() if h.attrs["rack"] == "1"]
    with fabric.churn():
        for i in range(num_flows):
            src, dst = left[i % 3], right[(i + 1) % 3]
            size = 2e4 * (i % 5 + 1) if i % 4 == 1 else 1e9
            fabric.start_flow(
                src, dst, size, path=_cross_leaf_path(topo, src, dst, i % 2),
                multiplicity=40 if i % 7 == 3 else 1,
            )
    orders = []

    def reroute():
        for flow in fabric.active_flows[:3]:
            spine = 1 - int(flow.path[1].dst.node_id.split("-")[1])
            fabric.reroute_flow(flow, _cross_leaf_path(topo, flow.src, flow.dst, spine))
        table = fabric.incidence.built_table
        if table is not None:
            orders.append([table.row_of[f.flow_id] for f in fabric.active_flows])

    uplink = topo.find_link(left[0], topo.node("leaf-0"))

    def abort_first_host():
        if uplink.queue_bytes <= 0.0 and sim.now < 2 * until / 3:
            sim.call_at(sim.now + 0.0005, abort_first_host)
            return
        for flow in list(fabric.active_flows):
            if flow.src is left[0]:
                fabric.abort_flow(flow)

    sim.call_at(until / 3, reroute)
    sim.call_at(until / 2, abort_first_host)
    if fail_at is not None:
        spine_link = topo.find_link(topo.node("leaf-0"), topo.node("spine-1"))
        sim.call_at(fail_at, lambda: fabric.fail_link(spine_link))
    sim.run(until=until)
    return fabric, reference, orders


class TestColumnarAdvance:
    """The columnar fabric pinned against an independent per-flow reference,
    with and without the incidence table (and so the columns) in place."""

    @pytest.mark.parametrize("prebuilt", [False, True])
    @pytest.mark.parametrize("num_flows", [1, 15, 63, 64, 300])
    def test_ideal_transport_matches_per_flow_reference(self, num_flows, prebuilt):
        fabric, reference, orders = _columnar_run(num_flows, IdealMaxMinTransport(), prebuilt)
        assert num_flows in reference.flow_counts
        columnar = prebuilt or num_flows >= 64
        assert (fabric.incidence.built_table is not None) == columnar
        if columnar and num_flows > 3:
            # The rerouted flows moved to the end of the table: row order is
            # no longer active order.
            assert orders and orders[0] != sorted(orders[0])

    @pytest.mark.parametrize("num_flows", [15, 64])
    def test_lossy_tcp_links_match_per_flow_reference(self, num_flows):
        fabric, reference, _ = _columnar_run(
            num_flows, TcpTransport(), prebuilt=True, buffer_bytes=30_000.0, until=0.5
        )
        assert num_flows in reference.flow_counts
        assert sum(link.loss_events for link in fabric.topology.links) > 0
        assert reference.drained > 0

    def test_backlog_from_before_the_table_drains_after_it(self):
        # TCP builds a backlog on the first host's uplink; that host's flows
        # are aborted, and 64 flows elsewhere build the table while the
        # uplink, crossed by no flow, still holds its backlog.
        topo = build_leaf_spine(num_spines=2, num_leaves=2, hosts_per_leaf=3)
        sim = Simulator()
        fabric = FabricSimulator(sim, topo, TcpTransport())
        reference = ReferenceAdvance(fabric)
        left = [h for h in topo.hosts() if h.attrs["rack"] == "0"]
        right = [h for h in topo.hosts() if h.attrs["rack"] == "1"]
        uplink = topo.find_link(left[0], topo.node("leaf-0"))
        with fabric.churn():
            for i in range(8):
                dst = right[i % 3]
                path = _cross_leaf_path(topo, left[0], dst, i % 2)
                fabric.start_flow(left[0], dst, 1e9, path=path)
        while uplink.queue_bytes <= 0.0:
            assert sim.now < 1.0
            sim.step()
        for flow in list(fabric.active_flows):
            fabric.abort_flow(flow)
        backlog = uplink.queue_bytes
        assert backlog > 0.0 and fabric.incidence.built_table is None
        with fabric.churn():
            for i in range(64):
                src, dst = left[1 + i % 2], right[i % 3]
                fabric.start_flow(src, dst, 1e9, path=_cross_leaf_path(topo, src, dst, i % 2))
        sim.run(until=sim.now + 0.05)
        assert fabric.incidence.built_table is not None
        assert 64 in reference.flow_counts
        assert uplink.queue_bytes < backlog and reference.drained > 0


def _reference_window(state, flow, queue_delay, lost, now, cfg):
    """One flow's TCP update on a copy of its ``state``: (new state, demand)."""
    state = dict(state)
    floor = cfg.min_window_segments * cfg.mss_bytes
    dt = max(0.0, now - state["updated_at"])
    state["updated_at"] = now
    rtt = max(flow.base_rtt_s + queue_delay, 1e-4)
    cwnd, ssthresh = state["cwnd"], state["ssthresh"]
    if lost:
        ssthresh = max(cwnd * cfg.loss_backoff, floor)
        cwnd = max(ssthresh, floor)
        state["losses"] += 1.0
    elif dt > 0.0:
        rtts = dt / rtt
        if cwnd < ssthresh:
            cwnd = min(cwnd * (2.0 ** rtts), ssthresh)
            if cwnd >= ssthresh:
                cwnd = min(cwnd + cfg.mss_bytes * rtts, cfg.max_window_bytes)
        else:
            cwnd = min(cwnd + cfg.mss_bytes * rtts, cfg.max_window_bytes)
    state["cwnd"] = min(max(cwnd, floor), cfg.max_window_bytes)
    state["ssthresh"] = ssthresh
    demand = state["cwnd"] * 8.0 / rtt
    if flow.multiplicity != 1:
        demand *= flow.multiplicity
    return state, min(demand, flow.aggregate_app_limit_bps)


class ReferenceWindows:
    """Checks every TCP update and reroute against a detached per-flow reference.

    Before each update every flow's TCP state is copied, with its path's
    queueing delay and loss latch, and evolved one flow at a time by
    :func:`_reference_window`; the demands are then solved as a dict by the
    reference progressive filling.  Afterwards the fabric must hold exactly
    the same window, threshold, loss count, last-update time and demand for
    every flow, and the same delivered rate: bit for bit below
    ``AUTO_NUMPY_MIN_FLOWS`` flows, where the Python filler solves, and
    within 1e-9 relative from there, where the delta filler sums each link
    with ``bincount`` (the same bits as the reference's ``sum`` on Python
    3.11, not under 3.12's compensated ``sum``).  Reroute hooks are checked
    the same way.
    """

    def __init__(self, transport):
        self.transport = transport
        self.config = transport.config
        self.columnar = self.per_flow = self.lossy = 0
        #: (reason, whether the flow was bound to a table) per reroute
        self.reroutes = []
        #: flow_id -> TCP state after the flow's last update or reroute
        self.last = {}
        #: flow_id -> every flow an update was handed
        self.flows = {}
        self._update = transport.update_rates
        self._reroute = transport.on_flow_rerouted
        transport.update_rates = self._checked_update
        transport.on_flow_rerouted = self._checked_reroute

    def _checked_update(self, flows, now):
        fabric = self.transport.fabric
        expected, demands = {}, {}
        for flow in flows:
            queue_delay = sum(link.queueing_delay() for link in flow.path)
            lost = any(link._loss_in_interval for link in flow.path)
            self.lossy += lost
            expected[flow.flow_id], demands[flow.flow_id] = _reference_window(
                flow.transport_state, flow, queue_delay, lost, now, self.config
            )
        delivered = max_min_shares_reference(flows, demand_caps=demands, cache=fabric.incidence)
        rel = 1e-9 if len(flows) >= AUTO_NUMPY_MIN_FLOWS else 0.0
        if fabric.table_for(flows) is None:
            self.per_flow += 1
        else:
            self.columnar += 1
        self._update(flows, now)
        for flow in flows:
            assert dict(flow.transport_state) == expected[flow.flow_id]
            assert flow.demand_rate_bps == demands[flow.flow_id]
            assert flow.current_rate_bps == pytest.approx(delivered[flow.flow_id], rel=rel, abs=0)
        self.last.update(expected)
        self.flows.update((flow.flow_id, flow) for flow in flows)

    def _checked_reroute(self, flow, now, reason="policy"):
        cfg = self.config
        state = dict(flow.transport_state)
        state["base_rtt"] = flow.base_rtt_s
        if reason == "failure":
            floor = cfg.min_window_segments * cfg.mss_bytes
            state["ssthresh"] = max(state["cwnd"] * cfg.loss_backoff, floor)
            state["cwnd"] = cfg.initial_window_segments * cfg.mss_bytes
            state["losses"] += 1.0
            state["updated_at"] = now
        self.reroutes.append((reason, isinstance(flow, BoundFlow)))
        self._reroute(flow, now, reason)
        assert dict(flow.transport_state) == state
        self.last[flow.flow_id] = state


class TestColumnarTcp:
    """TCP's window loop pinned against a detached per-flow reference, with
    aggregates, a policy reroute and a failure reroute, with and without the
    incidence table in place.  Small buffers make the links lossy and end
    slow start early; the default buffers keep most flows in slow start."""

    @pytest.mark.parametrize("buffer_bytes", [30_000.0, None])
    @pytest.mark.parametrize("prebuilt", [False, True])
    @pytest.mark.parametrize("num_flows", [1, 63, 64, 200])
    def test_windows_match_per_flow_reference(self, num_flows, prebuilt, buffer_bytes):
        transport = TcpTransport()
        windows = ReferenceWindows(transport)
        fabric, reference, _ = _columnar_run(
            num_flows, transport, prebuilt, buffer_bytes=buffer_bytes, until=0.5, fail_at=0.2
        )
        assert num_flows in reference.flow_counts
        columnar = prebuilt or num_flows >= 64
        assert (fabric.incidence.built_table is not None) == columnar
        assert windows.columnar > 0 if columnar else windows.columnar == 0
        assert windows.per_flow > 0 or prebuilt
        reasons = {reason for reason, _ in windows.reroutes}
        assert reasons == {"policy", "failure"}
        # Every reroute of a bound flow is a reroute on the table.
        assert all(bound == columnar for _, bound in windows.reroutes)
        flows = list(windows.flows.values())
        if num_flows >= 63 and buffer_bytes is not None:
            assert windows.lossy > 0
            assert any(f.multiplicity > 1 and TcpTransport.losses_of(f) for f in flows)

        # Live values through window_of/losses_of, on bound, unbound and
        # finished or aborted flows (which the table has let go).
        gone = [flow for flow in flows if flow.state is not FlowState.ACTIVE]
        assert gone and all(
            type(flow) is Flow and type(flow.transport_state) is dict for flow in gone
        )
        assert all(isinstance(flow, BoundFlow) == columnar for flow in fabric.active_flows)
        for flow in flows:
            state = windows.last[flow.flow_id]
            assert TcpTransport.window_of(flow) == state["cwnd"]
            assert TcpTransport.losses_of(flow) == int(state["losses"])


class TestColumnsLifecycle:
    def _fabric(self, num_flows):
        from repro.metrics.collector import MetricsCollector

        topo = build_leaf_spine(num_spines=2, num_leaves=2, hosts_per_leaf=3)
        sim = Simulator()
        fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
        collector = MetricsCollector(fabric)
        hosts = topo.hosts()
        for i in range(num_flows):
            fabric.start_flow(hosts[i % 6], hosts[(i + 1) % 6], 1e9)
        return sim, topo, fabric, collector

    def test_run_below_64_flows_exports_no_table_extras(self):
        sim, topo, fabric, collector = self._fabric(63)
        sim.run(until=0.2)
        assert fabric.incidence.built_table is None
        assert not [k for k in collector.kernel_extras() if k.startswith("table_")]
        assert not any(isinstance(f, BoundFlow) for f in fabric.active_flows)
        fabric.start_flow(topo.hosts()[0], topo.hosts()[1], 1e9)
        sim.run(until=0.4)
        assert "table_rows" in collector.kernel_extras()
        assert all(isinstance(f, BoundFlow) for f in fabric.active_flows)

    def test_cache_clear_hands_state_back_to_flows(self):
        sim, topo, fabric, _ = self._fabric(80)
        sim.run(until=0.2)
        table = fabric.incidence.built_table
        flows = list(fabric.active_flows)
        state = [
            (f.remaining_bytes, f.current_rate_bps, f.demand_rate_bps, f.priority_weight)
            for f in flows
        ]
        assert [table.remaining[f._index] for f in flows] == [s[0] for s in state]
        fabric.incidence.clear()
        assert not any(isinstance(f, BoundFlow) for f in flows)
        assert [
            (f.remaining_bytes, f.current_rate_bps, f.demand_rate_bps, f.priority_weight)
            for f in flows
        ] == state
        # Writes now land on the flow itself, not on the dropped table.
        flows[0].priority_weight = 3.0
        assert flows[0].priority_weight == 3.0
        assert table.priority_weight[table.row_of.get(flows[0].flow_id, 0)] != 3.0

    def test_copies_of_bound_flows_are_unbound(self):
        import copy
        import pickle

        sim, topo, fabric, _ = self._fabric(80)
        sim.run(until=0.2)
        flow = fabric.active_flows[0]
        assert isinstance(flow, BoundFlow)
        for clone in (copy.deepcopy(flow), pickle.loads(pickle.dumps(flow))):
            assert type(clone) is Flow and clone._cols is None
            assert (clone.flow_id, clone.remaining_bytes, clone.current_rate_bps) == (
                flow.flow_id, flow.remaining_bytes, flow.current_rate_bps
            )
        link = flow.path[0]
        clone = pickle.loads(pickle.dumps(link))
        assert (clone.queue_bytes, clone.bytes_carried) == (link.queue_bytes, link.bytes_carried)

    def test_reset_links_clears_columns_and_handles(self):
        sim, topo, fabric, _ = self._fabric(80)
        sim.run(until=0.2)
        columns = topo.link_columns
        loaded = [l for l in topo.links if l.bytes_carried > 0.0]
        assert loaded and all(type(l) is BoundLink and l._cols is columns for l in loaded)
        loaded[0].queue_bytes = 123.0
        assert columns.queue[loaded[0]._index] == 123.0
        topo.reset_links()
        assert not columns.queue.any() and not columns.carried.any()
        assert all(
            (l.queue_bytes, l.bytes_carried, l.loss_events) == (0.0, 0.0, 0)
            for l in topo.links
        )
        loaded[0].capacity_bps = 5e9
        assert columns.capacity[loaded[0]._index] == 5e9
