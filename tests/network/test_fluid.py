"""Tests for the max-min (water-filling) allocator, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flow import Flow
from repro.network.fluid import is_feasible, is_max_min_fair, link_utilisation, max_min_shares
from repro.network.topology import Topology

MBPS = 1e6


def build_line(num_links=1, capacity=100 * MBPS):
    """A chain of switches with the given number of links in each direction."""
    topo = Topology("line")
    nodes = [topo.add_switch(f"n{i}", level=1) for i in range(num_links + 1)]
    for a, b in zip(nodes, nodes[1:]):
        topo.add_duplex_link(a, b, capacity, 0.001)
    return topo, nodes


def flow_on(topo, src, dst, size=1e9, **kw):
    from repro.network.routing import Router

    return Flow(src, dst, size, Router(topo).path(src, dst), **kw)


class TestSingleLink:
    def test_single_flow_gets_full_capacity(self):
        topo, nodes = build_line(1)
        f = flow_on(topo, nodes[0], nodes[1])
        rates = max_min_shares([f])
        assert rates[f.flow_id] == pytest.approx(100 * MBPS)

    def test_two_flows_share_equally(self):
        topo, nodes = build_line(1)
        f1 = flow_on(topo, nodes[0], nodes[1])
        f2 = flow_on(topo, nodes[0], nodes[1])
        rates = max_min_shares([f1, f2])
        assert rates[f1.flow_id] == pytest.approx(50 * MBPS)
        assert rates[f2.flow_id] == pytest.approx(50 * MBPS)

    def test_demand_capped_flow_leaves_capacity_to_others(self):
        topo, nodes = build_line(1)
        f1 = flow_on(topo, nodes[0], nodes[1])
        f2 = flow_on(topo, nodes[0], nodes[1])
        rates = max_min_shares([f1, f2], demand_caps={f1.flow_id: 10 * MBPS})
        assert rates[f1.flow_id] == pytest.approx(10 * MBPS)
        assert rates[f2.flow_id] == pytest.approx(90 * MBPS)

    def test_weighted_sharing(self):
        topo, nodes = build_line(1)
        f1 = flow_on(topo, nodes[0], nodes[1], priority_weight=3.0)
        f2 = flow_on(topo, nodes[0], nodes[1], priority_weight=1.0)
        rates = max_min_shares([f1, f2])
        assert rates[f1.flow_id] == pytest.approx(75 * MBPS)
        assert rates[f2.flow_id] == pytest.approx(25 * MBPS)

    def test_app_limited_flow_is_capped(self):
        topo, nodes = build_line(1)
        f1 = flow_on(topo, nodes[0], nodes[1], app_limit_bps=5 * MBPS)
        rates = max_min_shares([f1])
        assert rates[f1.flow_id] == pytest.approx(5 * MBPS)

    def test_zero_cap_flow_gets_nothing(self):
        topo, nodes = build_line(1)
        f1 = flow_on(topo, nodes[0], nodes[1])
        f2 = flow_on(topo, nodes[0], nodes[1])
        rates = max_min_shares([f1, f2], demand_caps={f1.flow_id: 0.0})
        assert rates[f1.flow_id] == 0.0
        assert rates[f2.flow_id] == pytest.approx(100 * MBPS)

    def test_empty_flow_list(self):
        assert max_min_shares([]) == {}


class TestMultiLink:
    def test_classic_parking_lot(self):
        # Three links in a row; one long flow crosses all three, each link also
        # carries one single-hop flow.  Max-min: every flow gets C/2.
        topo, nodes = build_line(3)
        long_flow = flow_on(topo, nodes[0], nodes[3])
        short_flows = [flow_on(topo, nodes[i], nodes[i + 1]) for i in range(3)]
        rates = max_min_shares([long_flow] + short_flows)
        assert rates[long_flow.flow_id] == pytest.approx(50 * MBPS)
        for f in short_flows:
            assert rates[f.flow_id] == pytest.approx(50 * MBPS)

    def test_bottleneck_elsewhere_frees_capacity(self):
        # Flow A crosses links 1 and 2; flow B only link 1; flow C only link 2.
        # Link 1 has lower capacity, so A is bottlenecked there and C can use
        # the slack on link 2 — the paper's max-min property.
        topo = Topology()
        n0 = topo.add_switch("n0", 1)
        n1 = topo.add_switch("n1", 1)
        n2 = topo.add_switch("n2", 1)
        topo.add_duplex_link(n0, n1, 40 * MBPS, 0.001)
        topo.add_duplex_link(n1, n2, 100 * MBPS, 0.001)
        a = flow_on(topo, n0, n2)
        b = flow_on(topo, n0, n1)
        c = flow_on(topo, n1, n2)
        rates = max_min_shares([a, b, c])
        assert rates[a.flow_id] == pytest.approx(20 * MBPS)
        assert rates[b.flow_id] == pytest.approx(20 * MBPS)
        assert rates[c.flow_id] == pytest.approx(80 * MBPS)

    def test_result_is_feasible_and_max_min_fair(self):
        topo, nodes = build_line(3)
        flows = [flow_on(topo, nodes[0], nodes[3]) for _ in range(2)]
        flows += [flow_on(topo, nodes[1], nodes[2]) for _ in range(3)]
        rates = max_min_shares(flows)
        assert is_feasible(flows, rates)
        assert is_max_min_fair(flows, rates)

    def test_link_utilisation_reports_per_link_load(self):
        topo, nodes = build_line(2)
        f = flow_on(topo, nodes[0], nodes[2])
        rates = {f.flow_id: 30 * MBPS}
        load = link_utilisation([f], rates)
        assert all(v == pytest.approx(30 * MBPS) for v in load.values())
        assert len(load) == 2


class TestMaxMinProperties:
    @given(
        num_flows=st.integers(min_value=1, max_value=8),
        num_links=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_scenarios_are_feasible_and_max_min_fair(self, num_flows, num_links, seed):
        rng = np.random.default_rng(seed)
        topo, nodes = build_line(num_links, capacity=100 * MBPS)
        flows = []
        caps = {}
        for _ in range(num_flows):
            i = int(rng.integers(0, num_links))
            j = int(rng.integers(i + 1, num_links + 1))
            f = flow_on(topo, nodes[i], nodes[j])
            flows.append(f)
            if rng.random() < 0.5:
                caps[f.flow_id] = float(rng.uniform(1 * MBPS, 120 * MBPS))
        rates = max_min_shares(flows, demand_caps=caps)
        assert is_feasible(flows, rates)
        assert is_max_min_fair(flows, rates, demand_caps=caps)

    @given(
        weights=st.lists(
            st.floats(min_value=0.25, max_value=4.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_shares_are_proportional_on_one_link(self, weights):
        topo, nodes = build_line(1)
        flows = [
            flow_on(topo, nodes[0], nodes[1], priority_weight=w) for w in weights
        ]
        rates = max_min_shares(flows)
        total_weight = sum(weights)
        for f, w in zip(flows, weights):
            assert rates[f.flow_id] == pytest.approx(100 * MBPS * w / total_weight, rel=1e-6)

    @given(num_flows=st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_all_capacity_is_used_when_demands_are_unbounded(self, num_flows):
        topo, nodes = build_line(1)
        flows = [flow_on(topo, nodes[0], nodes[1]) for _ in range(num_flows)]
        rates = max_min_shares(flows)
        assert sum(rates.values()) == pytest.approx(100 * MBPS, rel=1e-9)
