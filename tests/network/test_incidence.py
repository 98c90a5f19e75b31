"""Tests for the incrementally-maintained link×flow incidence cache."""

import pytest

from repro.network.flow import Flow
from repro.network.incidence import IncidenceCache
from repro.network.routing import Router
from repro.network.topology import Topology

MBPS = 1e6


def build_line(num_links=3, capacity=100 * MBPS):
    topo = Topology("line")
    nodes = [topo.add_switch(f"n{i}", level=1) for i in range(num_links + 1)]
    for a, b in zip(nodes, nodes[1:]):
        topo.add_duplex_link(a, b, capacity, 0.001)
    return topo, nodes


def flow_on(topo, src, dst, **kw):
    return Flow(src, dst, 1e9, Router(topo).path(src, dst), **kw)


class TestMembership:
    def test_add_and_remove_round_trip(self):
        topo, nodes = build_line(3)
        f1 = flow_on(topo, nodes[0], nodes[3])
        f2 = flow_on(topo, nodes[1], nodes[2])
        cache = IncidenceCache([f1, f2])
        assert len(cache) == 2
        assert f1 in cache and f2 in cache
        cache.remove_flow(f1)
        assert len(cache) == 1
        assert f1 not in cache

    def test_link_flows_map_matches_paths(self):
        topo, nodes = build_line(3)
        long = flow_on(topo, nodes[0], nodes[3])
        short = flow_on(topo, nodes[1], nodes[2])
        cache = IncidenceCache([long, short])
        mapping = cache.link_flows_map()
        for link in long.path:
            assert long in mapping[link.link_id]
        shared = short.path[0]
        assert mapping[shared.link_id] == [long, short]

    def test_incidence_view_lists_the_map_in_its_order(self):
        """The solver accessor's two dicts agree with each other and with
        link_flows_map, also after a link empties and a flow re-joins."""
        topo, nodes = build_line(3)
        long = flow_on(topo, nodes[0], nodes[3])
        short = flow_on(topo, nodes[1], nodes[2])
        head = flow_on(topo, nodes[0], nodes[1])
        cache = IncidenceCache([head, long, short])
        cache.remove_flow(head)
        cache.remove_flow(long)
        cache.add_flow(head)
        cache.add_flow(long)
        links, flows_by_link = cache.incidence_view()
        mapping = cache.link_flows_map()
        assert list(links) == list(flows_by_link) == list(mapping)
        assert [links[i].link_id for i in links] == list(mapping)
        assert [list(b.values()) for b in flows_by_link.values()] == list(mapping.values())
        assert mapping[short.path[0].link_id] == [short, long]

    def test_remove_drops_empty_links(self):
        topo, nodes = build_line(3)
        f = flow_on(topo, nodes[0], nodes[3])
        cache = IncidenceCache([f])
        assert len(cache.links) == 3
        cache.remove_flow(f)
        assert cache.links == []
        assert cache.link_flows_map() == {}

    def test_duplicate_add_is_idempotent(self):
        topo, nodes = build_line(1)
        f = flow_on(topo, nodes[0], nodes[1])
        cache = IncidenceCache([f])
        epoch = cache.epoch
        cache.add_flow(f)
        assert len(cache) == 1
        assert cache.epoch == epoch
        assert cache.link_flows_map()[f.path[0].link_id] == [f]

    def test_remove_unknown_flow_is_a_noop(self):
        topo, nodes = build_line(1)
        f = flow_on(topo, nodes[0], nodes[1])
        cache = IncidenceCache()
        epoch = cache.epoch
        cache.remove_flow(f)
        assert cache.epoch == epoch


class TestEpochAndCaching:
    def test_epoch_bumps_on_mutation(self):
        topo, nodes = build_line(1)
        f = flow_on(topo, nodes[0], nodes[1])
        cache = IncidenceCache()
        e0 = cache.epoch
        cache.add_flow(f)
        e1 = cache.epoch
        assert e1 > e0
        cache.remove_flow(f)
        assert cache.epoch > e1

    def test_map_is_cached_per_epoch(self):
        topo, nodes = build_line(2)
        f = flow_on(topo, nodes[0], nodes[2])
        cache = IncidenceCache([f])
        assert cache.link_flows_map() is cache.link_flows_map()
        g = flow_on(topo, nodes[0], nodes[1])
        first = cache.link_flows_map()
        cache.add_flow(g)
        assert cache.link_flows_map() is not first

    def test_table_is_built_once_and_kept(self):
        """The table is built on first use, then updated in place."""
        topo, nodes = build_line(2)
        cache = IncidenceCache([flow_on(topo, nodes[0], nodes[2])])
        table = cache.table()
        cache.add_flow(flow_on(topo, nodes[0], nodes[1]))
        assert cache.table() is table
        assert table.live_rows == 2

    def test_table_structure(self):
        topo, nodes = build_line(3)
        long = flow_on(topo, nodes[0], nodes[3])
        short = flow_on(topo, nodes[1], nodes[2])
        table = IncidenceCache([long, short]).table()
        rows = [table.row_of[long.flow_id], table.row_of[short.flow_id]]
        # Flow-major pairs: 3 links of the long flow then 1 of the short.
        assert table.pair_flow[: table.pair_count].tolist() == [rows[0]] * 3 + [rows[1]]
        # The short flow rides the long flow's middle link.
        assert table.pair_link[3] == table.pair_link[1]
        assert table.link_slots[table.pair_link[1]] is long.path[1]


class TestRunRoundIntegration:
    def test_scda_run_round_accepts_incidence_cache(self):
        """run_round takes the fabric's cache directly (controller's hot path)."""
        from repro.core.maxmin import ScdaTree
        from repro.network.tree import TreeTopologyConfig, build_tree_topology

        topo = build_tree_topology(TreeTopologyConfig())
        tree = ScdaTree(topo)
        router = Router(topo)
        hosts, clients = topo.hosts(), topo.clients()
        f = Flow(clients[0], hosts[0], 1e9, router.path(clients[0], hosts[0]))
        cache = IncidenceCache([f])
        tree.run_round(cache, now=0.0)
        assert tree.rounds_completed == 1
        dict_tree = ScdaTree(build_tree_topology(TreeTopologyConfig()))
        dict_tree.run_round(cache.link_flows_map(), now=0.0)
        assert dict_tree.rounds_completed == 1


class TestMatches:
    def test_matches_exact_set(self):
        topo, nodes = build_line(2)
        f1 = flow_on(topo, nodes[0], nodes[2])
        f2 = flow_on(topo, nodes[0], nodes[1])
        cache = IncidenceCache([f1, f2])
        assert cache.matches([f1, f2])
        assert cache.matches([f2, f1])  # order-insensitive
        assert not cache.matches([f1])
        assert not cache.matches([f1, f2, flow_on(topo, nodes[1], nodes[2])])

    def test_matches_detects_path_change(self):
        topo, nodes = build_line(3)
        f = flow_on(topo, nodes[0], nodes[3])
        cache = IncidenceCache([f])
        f.path = f.path[:1]  # rerouted outside the cache's knowledge
        assert not cache.matches([f])

    def test_matches_detects_equal_length_reroute(self):
        # An ECMP-style reroute keeps the hop count; the guard must still see it.
        topo, nodes = build_line(3)
        f = flow_on(topo, nodes[0], nodes[3])
        reverse = flow_on(topo, nodes[3], nodes[0])
        cache = IncidenceCache([f])
        assert len(reverse.path) == len(f.path)
        f.path = list(reverse.path)  # same length, different links
        assert not cache.matches([f])
