"""Tests for the RM/RA tree and the max/min exchange."""

import pytest

from repro.core.maxmin import ScdaTree
from repro.core.monitors import OtherResourceModel
from repro.core.rate_metric import ScdaParams
from repro.network.fabric import FabricSimulator
from repro.network.fattree import build_fat_tree
from repro.network.flow import Flow
from repro.network.leafspine import build_leaf_spine
from repro.network.routing import Router
from repro.network.topology import NodeKind
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.network.tree import TreeTopologyConfig, build_tree_topology
from repro.network.vl2 import build_vl2_topology
from repro.sim.engine import Simulator

MBPS = 1e6


def flows_map(topology, flows):
    """link_id -> flows, as the controller would build it."""
    mapping = {}
    for flow in flows:
        for link in flow.path:
            mapping.setdefault(link.link_id, []).append(flow)
    return mapping


def make_flow(topo, src, dst, rate):
    s, d = topo.node(src), topo.node(dst)
    f = Flow(s, d, 1e9, Router(topo).path(s, d))
    f.current_rate_bps = rate
    return f


class TestTreeConstruction:
    def test_one_rm_per_host_and_one_ra_per_switch(self, small_tree):
        tree = ScdaTree(small_tree)
        assert set(tree.monitors) == {h.node_id for h in small_tree.hosts()}
        assert set(tree.allocators) == {s.node_id for s in small_tree.switches()}

    def test_client_links_get_standalone_calculators(self, small_tree):
        tree = ScdaTree(small_tree)
        client = small_tree.clients()[0]
        client_links = small_tree.out_links(client) + small_tree.in_links(client)
        for link in client_links:
            assert link.link_id in tree.extra_calculators

    def test_every_link_has_an_advertised_rate(self, small_tree):
        tree = ScdaTree(small_tree)
        for link in small_tree.links:
            assert tree.link_rate_bps(link) > 0

    def test_hmax_matches_topology(self, small_tree):
        assert ScdaTree(small_tree).hmax == 3


class TestRound:
    def test_idle_round_advertises_alpha_capacity_everywhere(self, small_tree):
        tree = ScdaTree(small_tree, ScdaParams(alpha=0.9))
        tree.run_round({}, now=0.0)
        host = small_tree.hosts()[0]
        rates = tree.level_rates_of(host.node_id)
        # Host access links are the narrowest part of the path, so every level
        # reports the host link's alpha*C.
        assert rates.up_to(3) == pytest.approx(0.9 * small_tree.uplink_of(host).capacity_bps)
        assert tree.rounds_completed == 1

    def test_loaded_host_advertises_lower_rate(self, small_tree):
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        busy = small_tree.hosts()[0].node_id
        idle = small_tree.hosts()[1].node_id
        x = small_tree.uplink_of(small_tree.hosts()[0]).capacity_bps
        # Two flows write into the busy host at its full downlink rate.
        flows = [make_flow(small_tree, "ucl-0", busy, rate=x) for _ in range(2)]
        tree.run_round(flows_map(small_tree, flows), now=0.0)
        metrics = {m.host_id: m for m in tree.host_metrics()}
        assert metrics[busy].down_bps < metrics[idle].down_bps

    def test_host_metrics_reflect_upper_level_bottlenecks(self, small_tree_config, small_tree):
        # Saturate the right-side aggregation uplink: hosts under it should
        # advertise a whole-DC rate capped by that link, not by their own.
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        x = small_tree_config.base_bandwidth_bps
        agg_capacity = small_tree_config.bandwidth_factor * x
        right_host = "bs-1-0-0"
        other_right_host = "bs-1-1-0"
        # Many flows from right-side hosts out to clients, all crossing agg-1 -> core.
        flows = []
        for i in range(8):
            flows.append(make_flow(small_tree, right_host, "ucl-0", rate=agg_capacity / 2))
        tree.run_round(flows_map(small_tree, flows), now=0.0)
        tree.run_round(flows_map(small_tree, flows), now=0.01)
        metrics = {m.host_id: m for m in tree.host_metrics()}
        # The sibling host's whole-DC uplink rate is constrained by the shared
        # aggregation uplink which is now heavily oversubscribed.
        assert metrics[other_right_host].up_bps < x

    def test_sla_violations_surface(self, small_tree):
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        host = small_tree.hosts()[0]
        x = small_tree.uplink_of(host).capacity_bps
        flows = [make_flow(small_tree, host.node_id, "ucl-0", rate=0.8 * x) for _ in range(3)]
        tree.run_round(flows_map(small_tree, flows), now=0.0)
        assert host.node_id in tree.sla_violations()

    def test_reservations_shrink_advertised_rates(self, small_tree):
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        host = small_tree.hosts()[0]
        uplink = small_tree.uplink_of(host)
        tree.run_round({}, now=0.0, link_reservations={uplink.link_id: 0.5 * uplink.capacity_bps})
        rm = tree.monitor_of(host.node_id)
        assert rm.capped_up_bps == pytest.approx(0.5 * uplink.capacity_bps)

    def test_other_resources_cap_host_metrics(self, small_tree):
        other = OtherResourceModel()
        slow_host = small_tree.hosts()[0].node_id
        other.set_host_limit(slow_host, 7 * MBPS, 9 * MBPS)
        tree = ScdaTree(small_tree, other_resources=other)
        tree.run_round({}, now=0.0)
        metrics = {m.host_id: m for m in tree.host_metrics()}
        assert metrics[slow_host].up_bps == pytest.approx(7 * MBPS)
        assert metrics[slow_host].down_bps == pytest.approx(9 * MBPS)
        assert metrics[slow_host].min_bps == pytest.approx(7 * MBPS)

    def test_reset_clears_state(self, small_tree):
        tree = ScdaTree(small_tree)
        flows = [make_flow(small_tree, "bs-0-0-0", "ucl-0", rate=10 * MBPS)]
        tree.run_round(flows_map(small_tree, flows), now=0.0)
        tree.reset()
        assert tree.rounds_completed == 0
        assert tree.level_rates_of("bs-0-0-0").rates == {}

    def test_missing_host_link_raises(self):
        from repro.network.topology import Topology

        topo = Topology()
        topo.add_switch("sw", 1)
        host = topo.add_host("lonely")
        # host has links only in one direction
        topo.add_link(host, topo.node("sw"), 1e6, 0.001)
        with pytest.raises(ValueError):
            ScdaTree(topo)


class TestConvergenceToMaxMin:
    def test_single_bottleneck_equal_split(self, small_tree):
        """Four equal flows into one host converge to C/4 each (like RCP)."""
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        host = small_tree.hosts()[0]
        x = small_tree.uplink_of(host).capacity_bps
        flows = [make_flow(small_tree, f"ucl-{i}", host.node_id, rate=0.0) for i in range(4)]

        # Emulate the closed loop: every round, flows adopt the rate the tree
        # advertises on their path (min over links), then the tree re-measures.
        for round_idx in range(30):
            tree.run_round(flows_map(small_tree, flows), now=round_idx * 0.01)
            for f in flows:
                f.current_rate_bps = min(tree.link_rate_bps(l) for l in f.path)
        for f in flows:
            assert f.current_rate_bps == pytest.approx(x / 4, rel=0.05)

    def test_flow_bottlenecked_elsewhere_frees_capacity(self, small_tree):
        """Equation 3's max-min property at tree scale."""
        params = ScdaParams(alpha=1.0, beta=0.0)
        tree = ScdaTree(small_tree, params)
        host = small_tree.hosts()[0]
        x = small_tree.uplink_of(host).capacity_bps
        capped = make_flow(small_tree, "ucl-0", host.node_id, rate=0.0)
        free = make_flow(small_tree, "ucl-1", host.node_id, rate=0.0)
        app_limit = 0.1 * x
        for round_idx in range(40):
            tree.run_round(flows_map(small_tree, [capped, free]), now=round_idx * 0.01)
            capped.current_rate_bps = min(
                app_limit, min(tree.link_rate_bps(l) for l in capped.path)
            )
            free.current_rate_bps = min(tree.link_rate_bps(l) for l in free.path)
        # The unconstrained flow should converge towards ~0.9x, not 0.5x.
        assert free.current_rate_bps > 0.8 * x


def fresh_walk(tree, topology):
    """The RM/RA walk of a round, derived again from the topology's tree queries."""
    hmax = topology.max_level()
    level_groups = []
    for level in range(1, hmax + 1):
        group = []
        for switch_id, ra in tree.allocators.items():
            if ra.level == level:
                group.append((switch_id, ra, topology.children(ra.switch)))
        level_groups.append(group)
    host_chains = {}
    for host_id, rm in tree.monitors.items():
        chain = []
        parent = topology.parent(rm.host)
        while parent is not None and parent.kind is NodeKind.SWITCH:
            chain.append((parent.level, tree.allocators[parent.node_id]))
            parent = topology.parent(parent)
        host_chains[host_id] = chain
    standalone = [
        (link, tree.extra_calculators[link.link_id])
        for link in topology.links
        if link.link_id in tree.extra_calculators
    ]
    return hmax, level_groups, host_chains, standalone


def recorded_walk(tree):
    return tree.hmax, tree._level_groups, tree._host_chains, tree._standalone


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_tree_topology(TreeTopologyConfig()),
        lambda: build_fat_tree(k=4),
        build_leaf_spine,
        build_vl2_topology,
    ],
    ids=["tree", "fattree-k4", "leafspine", "vl2"],
)
def test_recorded_walk_matches_the_topology(build):
    """The walk ScdaTree records at build time is the one the topology's
    children/parent/max_level queries give, before and after a link failure."""
    topology = build()
    tree = ScdaTree(topology)
    expected = fresh_walk(tree, topology)
    assert recorded_walk(tree) == expected
    assert expected[1] and expected[2] and expected[3]  # every part is non-trivial

    fabric = FabricSimulator(Simulator(), topology, IdealMaxMinTransport())
    hosts, clients = topology.hosts(), topology.clients()
    for i, host in enumerate(hosts[:6]):
        fabric.start_flow(clients[i % len(clients)], host, 1e9)
    switch_uplink = next(
        link for link in topology.links if link.src.kind is NodeKind.SWITCH and link.is_uplink
    )
    fabric.fail_link(switch_uplink)
    assert not switch_uplink.up
    assert recorded_walk(tree) == fresh_walk(tree, topology) == expected
