"""Tests for topology primitives."""

import pytest

from repro.network.topology import Link, Node, NodeKind, Topology

MBPS = 1e6


@pytest.fixture
def simple_topo():
    topo = Topology("simple")
    core = topo.add_switch("core", level=2)
    tor = topo.add_switch("tor", level=1)
    host = topo.add_host("bs-0", level=0, rack="r0")
    client = topo.add_client("ucl-0")
    topo.add_duplex_link(tor, core, 10 * MBPS, 0.001)
    topo.add_duplex_link(host, tor, 10 * MBPS, 0.001)
    topo.add_duplex_link(client, core, 5 * MBPS, 0.01)
    return topo


class TestTopologyConstruction:
    def test_node_lookup_and_kinds(self, simple_topo):
        assert simple_topo.node("bs-0").kind is NodeKind.HOST
        assert simple_topo.node("core").kind is NodeKind.SWITCH
        assert simple_topo.node("ucl-0").kind is NodeKind.CLIENT

    def test_duplicate_node_id_raises(self, simple_topo):
        with pytest.raises(ValueError):
            simple_topo.add_host("bs-0")

    def test_link_requires_registered_endpoints(self, simple_topo):
        orphan = Node("ghost", NodeKind.HOST, 0)
        with pytest.raises(KeyError):
            simple_topo.add_link(orphan, simple_topo.node("core"), 1e6, 0.001)

    def test_hosts_switches_clients_partitions(self, simple_topo):
        assert {n.node_id for n in simple_topo.hosts()} == {"bs-0"}
        assert {n.node_id for n in simple_topo.switches()} == {"core", "tor"}
        assert {n.node_id for n in simple_topo.clients()} == {"ucl-0"}

    def test_duplex_link_creates_both_directions(self, simple_topo):
        host, tor = simple_topo.node("bs-0"), simple_topo.node("tor")
        up = simple_topo.find_link(host, tor)
        down = simple_topo.find_link(tor, host)
        assert up.is_uplink and not down.is_uplink

    def test_find_link_missing_raises(self, simple_topo):
        host, client = simple_topo.node("bs-0"), simple_topo.node("ucl-0")
        with pytest.raises(KeyError):
            simple_topo.find_link(host, client)

    def test_parent_and_children(self, simple_topo):
        host = simple_topo.node("bs-0")
        tor = simple_topo.node("tor")
        core = simple_topo.node("core")
        assert simple_topo.parent(host) is tor
        assert simple_topo.parent(tor) is core
        assert simple_topo.parent(core) is None
        assert host in simple_topo.children(tor)

    def test_uplink_and_downlink_of_host(self, simple_topo):
        host = simple_topo.node("bs-0")
        assert simple_topo.uplink_of(host).dst.node_id == "tor"
        assert simple_topo.downlink_to(host).src.node_id == "tor"

    def test_max_level_and_levels(self, simple_topo):
        assert simple_topo.max_level() == 2
        levels = simple_topo.levels()
        assert {n.node_id for n in levels[0]} == {"bs-0"}
        assert {n.node_id for n in levels[2]} == {"core"}

    def test_len_and_iteration(self, simple_topo):
        assert len(simple_topo) == 4
        assert {n.node_id for n in simple_topo} == {"core", "tor", "bs-0", "ucl-0"}

    def test_validate_accepts_well_formed_topology(self, simple_topo):
        simple_topo.validate()

    def test_validate_rejects_disconnected_host(self):
        topo = Topology()
        topo.add_host("isolated")
        with pytest.raises(ValueError):
            topo.validate()

    def test_to_dot_renders_every_node_and_each_cable_once(self, simple_topo):
        dot = simple_topo.to_dot()
        assert dot.startswith('graph "simple"')
        for node_id in ("core", "tor", "bs-0", "ucl-0"):
            assert f'"{node_id}"' in dot
        # Three duplex cables -> exactly three undirected edges.
        assert dot.count(" -- ") == 3
        assert "0.01G" in dot  # capacity labels present

    def test_to_dot_without_capacities(self, simple_topo):
        dot = simple_topo.to_dot(include_capacities=False)
        # No capacity labels on the edges when disabled.
        assert 'G"]' not in dot
        assert dot.count(" -- ") == 3


class TestLink:
    def test_invalid_capacity_or_delay_raises(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        with pytest.raises(ValueError):
            Link(a, b, capacity_bps=0.0, delay_s=0.001)
        with pytest.raises(ValueError):
            Link(a, b, capacity_bps=1e6, delay_s=-1.0)

    @pytest.mark.parametrize("field", ["capacity_bps", "delay_s", "buffer_bytes"])
    def test_nan_raises(self, field):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        kwargs = {"capacity_bps": 1e6, "delay_s": 0.001, "buffer_bytes": 1e4, field: float("nan")}
        with pytest.raises(ValueError):
            Link(a, b, **kwargs)

    def test_default_buffer_is_100ms_worth_of_bytes(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        assert link.buffer_bytes == pytest.approx(8e6 * 0.1 / 8)

    def test_queue_grows_when_offered_exceeds_capacity(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        link.integrate_queue(offered_bps=16e6, dt=0.05)
        # (16e6 - 8e6) bits/s * 0.05 s / 8 = 50 KB backlog
        assert link.queue_bytes == pytest.approx(50_000)
        assert link.queueing_delay() == pytest.approx(50_000 * 8 / 8e6)

    def test_queue_drains_when_underloaded(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        link.integrate_queue(16e6, 0.05)
        link.integrate_queue(0.0, 0.02)
        assert link.queue_bytes == pytest.approx(50_000 - 8e6 * 0.02 / 8)

    def test_queue_never_negative(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        link.integrate_queue(0.0, 10.0)
        assert link.queue_bytes == 0.0

    def test_buffer_overflow_sets_loss_flag_and_clamps(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001, buffer_bytes=1000.0)
        link.integrate_queue(80e6, 1.0)
        assert link.queue_bytes == pytest.approx(1000.0)
        assert link.consume_loss_flag() is True
        # The flag is cleared by consuming it.
        assert link.consume_loss_flag() is False
        assert link.loss_events == 1

    def test_bytes_carried_capped_at_capacity(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        link.integrate_queue(80e6, 1.0)
        assert link.bytes_carried == pytest.approx(1e6)

    def test_reset_state_clears_everything(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001, buffer_bytes=10.0)
        link.integrate_queue(80e6, 1.0)
        link.reset_state()
        assert link.queue_bytes == 0.0
        assert link.loss_events == 0
        assert link.bytes_carried == 0.0

    def test_negative_dt_raises(self):
        a, b = Node("a", NodeKind.SWITCH, 1), Node("b", NodeKind.SWITCH, 1)
        link = Link(a, b, capacity_bps=8e6, delay_s=0.001)
        with pytest.raises(ValueError):
            link.integrate_queue(1e6, -0.1)
