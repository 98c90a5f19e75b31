"""Equivalence of the water-fillers.

Property tests over randomized topologies, flow sets, weights, demand caps,
app limits, capacity scales and overrides: the numpy backend must agree with
the Python solver within 1e-9 relative on every flow, and both allocations
must satisfy the max-min fairness property.  The production Python filler
must return exactly what the reference progressive filling returns: the
same keys in the same order and the same bits in every value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import FabricSimulator
from repro.network.flow import Flow
from repro.network.fluid import (
    _max_min_shares_python,
    is_feasible,
    is_max_min_fair,
    max_min_shares,
)
from repro.network.fluid_fast import RowRates
from repro.network.incidence import IncidenceCache
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.sim.engine import Simulator

from maxmin_reference import max_min_shares_reference

MBPS = 1e6


def build_line(num_links, capacities):
    topo = Topology("line")
    nodes = [topo.add_switch(f"n{i}", level=1) for i in range(num_links + 1)]
    for (a, b), cap in zip(zip(nodes, nodes[1:]), capacities):
        topo.add_duplex_link(a, b, cap, 0.001)
    return topo, nodes


def random_scenario(num_flows, num_links, seed):
    """A randomized line-topology scenario with mixed weights/caps/limits."""
    rng = np.random.default_rng(seed)
    capacities = rng.uniform(10 * MBPS, 200 * MBPS, size=num_links)
    topo, nodes = build_line(num_links, capacities)
    router = Router(topo)
    flows, caps, weights = [], {}, {}
    for _ in range(num_flows):
        i = int(rng.integers(0, num_links))
        j = int(rng.integers(i + 1, num_links + 1))
        kw = {}
        if rng.random() < 0.4:
            kw["priority_weight"] = float(rng.uniform(0.25, 4.0))
        if rng.random() < 0.3:
            kw["app_limit_bps"] = float(rng.uniform(1 * MBPS, 150 * MBPS))
        f = Flow(nodes[i], nodes[j], 1e9, router.path(nodes[i], nodes[j]), **kw)
        flows.append(f)
        r = rng.random()
        if r < 0.3:
            caps[f.flow_id] = float(rng.uniform(0.5 * MBPS, 150 * MBPS))
        elif r < 0.35:
            caps[f.flow_id] = 0.0  # zero-cap flows freeze immediately
        if rng.random() < 0.2:
            weights[f.flow_id] = float(rng.uniform(0.5, 3.0))
    return topo, flows, caps, weights


def assert_allocations_close(a, b, rel=1e-9):
    assert a.keys() == b.keys()
    for flow_id in a:
        tol = rel * max(1.0, abs(a[flow_id]))
        assert abs(a[flow_id] - b[flow_id]) <= tol, (
            f"flow {flow_id}: python={a[flow_id]!r} numpy={b[flow_id]!r}"
        )


class TestRandomizedEquivalence:
    @given(
        num_flows=st.integers(min_value=1, max_value=40),
        num_links=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_solvers_agree_on_random_scenarios(self, num_flows, num_links, seed):
        topo, flows, caps, weights = random_scenario(num_flows, num_links, seed)
        py = max_min_shares(flows, demand_caps=caps, weights=weights, solver="python")
        np_ = max_min_shares(flows, demand_caps=caps, weights=weights, solver="numpy")
        assert_allocations_close(py, np_)
        assert is_feasible(flows, py)
        assert is_feasible(flows, np_)
        # is_max_min_fair checks the *unweighted* property, so only assert it
        # when every flow carries weight 1.
        if not weights and all(f.priority_weight == 1.0 for f in flows):
            assert is_max_min_fair(flows, py, demand_caps=caps)
            assert is_max_min_fair(flows, np_, demand_caps=caps)

    @given(
        num_flows=st.integers(min_value=1, max_value=30),
        num_links=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_unweighted_numpy_allocations_are_max_min_fair(
        self, num_flows, num_links, seed
    ):
        rng = np.random.default_rng(seed)
        capacities = rng.uniform(10 * MBPS, 200 * MBPS, size=num_links)
        topo, nodes = build_line(num_links, capacities)
        router = Router(topo)
        flows, caps = [], {}
        for _ in range(num_flows):
            i = int(rng.integers(0, num_links))
            j = int(rng.integers(i + 1, num_links + 1))
            f = Flow(nodes[i], nodes[j], 1e9, router.path(nodes[i], nodes[j]))
            flows.append(f)
            if rng.random() < 0.4:
                caps[f.flow_id] = float(rng.uniform(0.5 * MBPS, 150 * MBPS))
        for solver in ("python", "numpy"):
            rates = max_min_shares(flows, demand_caps=caps, solver=solver)
            assert is_feasible(flows, rates)
            assert is_max_min_fair(flows, rates, demand_caps=caps)

    @given(
        num_flows=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.3, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_solvers_agree_under_capacity_scale_and_overrides(
        self, num_flows, seed, scale
    ):
        topo, flows, caps, weights = random_scenario(num_flows, 4, seed)
        rng = np.random.default_rng(seed + 1)
        overrides = {
            link.link_id: float(rng.uniform(5 * MBPS, 120 * MBPS))
            for link in topo.links
            if rng.random() < 0.5
        }
        kwargs = dict(
            demand_caps=caps,
            weights=weights,
            capacity_scale=scale,
            capacity_overrides=overrides,
        )
        py = max_min_shares(flows, solver="python", **kwargs)
        np_ = max_min_shares(flows, solver="numpy", **kwargs)
        assert_allocations_close(py, np_)

    @given(
        num_flows=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_incidence_gives_identical_results(self, num_flows, seed):
        topo, flows, caps, weights = random_scenario(num_flows, 5, seed)
        cache = IncidenceCache(flows)
        fresh = max_min_shares(flows, demand_caps=caps, weights=weights, solver="numpy")
        cached = max_min_shares(
            flows, demand_caps=caps, weights=weights, solver="numpy", cache=cache
        )
        assert fresh == cached
        py_cached = max_min_shares(
            flows, demand_caps=caps, weights=weights, solver="python", cache=cache
        )
        assert_allocations_close(py_cached, cached)

    @given(
        num_flows=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_incremental_cache_updates_track_membership(self, num_flows, seed):
        """Removing/re-adding flows through the cache matches a fresh solve."""
        topo, flows, caps, _weights = random_scenario(num_flows, 4, seed)
        cache = IncidenceCache(flows)
        removed = flows[:: max(1, num_flows // 3)]
        for f in removed:
            cache.remove_flow(f)
        remaining = [f for f in flows if f not in removed]
        via_cache = max_min_shares(
            remaining, demand_caps=caps, solver="numpy", cache=cache
        )
        fresh = max_min_shares(remaining, demand_caps=caps, solver="numpy")
        assert via_cache == fresh


class TestDispatch:
    def test_auto_dispatches_to_numpy_at_scale(self):
        from repro.network import fluid

        topo, flows, caps, weights = random_scenario(
            fluid.AUTO_NUMPY_MIN_FLOWS + 10, 4, seed=5
        )
        auto = max_min_shares(flows, demand_caps=caps, solver="auto")
        explicit = max_min_shares(flows, demand_caps=caps, solver="numpy")
        assert auto == explicit

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            max_min_shares([], solver="fortran")

    def test_stale_cache_falls_back_to_rebuild(self):
        topo, flows, caps, _w = random_scenario(10, 3, seed=9)
        cache = IncidenceCache(flows[:5])  # does not cover the flow set
        result = max_min_shares(flows, demand_caps=caps, solver="numpy", cache=cache)
        fresh = max_min_shares(flows, demand_caps=caps, solver="numpy")
        assert result == fresh

    def test_non_positive_weight_raises_in_both_backends(self):
        topo, flows, _caps, _w = random_scenario(3, 2, seed=1)
        bad = {flows[0].flow_id: -1.0}
        with pytest.raises(ValueError):
            max_min_shares(flows, weights=bad, solver="python")
        with pytest.raises(ValueError):
            max_min_shares(flows, weights=bad, solver="numpy")

    def test_empty_and_pathless_flows(self):
        assert max_min_shares([], solver="numpy") == {}
        topo, nodes = build_line(1, [100 * MBPS])
        f = Flow(nodes[0], nodes[1], 1e9, [])
        assert max_min_shares([f], solver="numpy") == {f.flow_id: 0.0}


# -- exact equality with the reference filler ------------------------------------

#: Capacities, weights and caps come mostly from small sets, so distinct links
#: often reach exactly the same fair share.
_CAPACITIES = (10 * MBPS, 20 * MBPS, 30 * MBPS, 60 * MBPS)
_WEIGHTS = (1.0, 1.0, 1.0, 0.5, 2.0, 3.0)


@st.composite
def filler_problems(draw):
    """Links, flows over them and solver inputs, as plain data.

    Ties between links are built two ways.  A link may get a *twin* crossed
    by exactly the same flows, with the same capacity or the next float up.
    And a link may take the capacity ``share × Σ weights`` of the flows
    crossing it, for one ``share`` per problem, so links crossed by
    different flows start at the same fair share, exactly or within
    rounding.
    """
    num_links = draw(st.integers(1, 6))
    twins = [draw(st.sampled_from(("none", "none", "exact", "near"))) for _ in range(num_links)]
    twin_of = {}
    for i, twin in enumerate(twins):
        if twin != "none":
            twin_of[i] = num_links + len(twin_of)
    flows = []
    for _ in range(draw(st.integers(1, 24))):
        path = draw(st.lists(st.integers(0, num_links - 1), min_size=1, unique=True))
        path += [twin_of[i] for i in path if i in twin_of]
        flows.append(
            {
                "path": draw(st.permutations(path)),
                "priority_weight": draw(st.sampled_from(_WEIGHTS)),
                "multiplicity": draw(st.sampled_from((1, 1, 1, 3))),
                "app_limit_bps": draw(
                    st.sampled_from((float("inf"),) * 6 + (5 * MBPS, 10 * MBPS))
                ),
                "demand_cap": draw(
                    st.sampled_from((None,) * 6 + (0.0, 5 * MBPS, 10 * MBPS))
                    | st.floats(0.5 * MBPS, 150 * MBPS)
                ),
                "weight": draw(st.sampled_from((None, None) + _WEIGHTS)),
            }
        )
    share = draw(st.floats(0.5 * MBPS, 50 * MBPS))
    capacities = []
    for i in range(num_links):
        kind = draw(st.sampled_from(("round", "float", "tied", "tied", "tied")))
        weight_sum = sum(
            (f["priority_weight"] if f["weight"] is None else f["weight"]) * f["multiplicity"]
            for f in flows
            if i in f["path"]
        )
        if kind == "tied" and weight_sum:
            capacities.append(share * weight_sum)
        elif kind == "float":
            capacities.append(draw(st.floats(1 * MBPS, 200 * MBPS)))
        else:
            capacities.append(draw(st.sampled_from(_CAPACITIES)))
    for i, twin in enumerate(twins):
        if twin != "none":
            capacities.append(
                capacities[i] if twin == "exact" else math.nextafter(capacities[i], math.inf)
            )
    scale = draw(st.sampled_from((1.0, 1.0, 0.9, 0.5, 1.5)))
    overrides = draw(
        st.dictionaries(
            st.integers(0, len(capacities) - 1),
            st.sampled_from(_CAPACITIES) | st.floats(1 * MBPS, 200 * MBPS),
            max_size=2,
        )
    )
    return capacities, flows, scale, overrides


def _star(capacities):
    """One directed link per capacity, each from its own node to a hub."""
    topo = Topology("star")
    hub = topo.add_switch("hub", level=1)
    links = [
        topo.add_link(topo.add_host(f"h{i}"), hub, capacity, 0.001)
        for i, capacity in enumerate(capacities)
    ]
    return topo, hub, links


def _solver_inputs(flows, specs, links, scale, overrides):
    demand_caps = {
        f.flow_id: spec["demand_cap"]
        for f, spec in zip(flows, specs)
        if spec["demand_cap"] is not None
    }
    weights = {
        f.flow_id: spec["weight"] for f, spec in zip(flows, specs) if spec["weight"] is not None
    }
    return dict(
        demand_caps=demand_caps,
        weights=weights,
        capacity_scale=scale,
        capacity_overrides={links[i].link_id: value for i, value in overrides.items()},
    )


def _fabric_problem(problem, data):
    """The problem's flows started on a fabric, some then aborted or
    rerouted as drawn: (fabric, solver inputs of the flows left)."""
    capacities, specs, scale, overrides = problem
    topo, hub, links = _star(capacities)
    fabric = FabricSimulator(Simulator(), topo, IdealMaxMinTransport())
    started = [
        fabric.start_flow(
            links[spec["path"][0]].src,
            hub,
            1e9,
            priority_weight=spec["priority_weight"],
            multiplicity=spec["multiplicity"],
            app_limit_bps=spec["app_limit_bps"],
            path=[links[i] for i in spec["path"]],
        )
        for spec in specs
    ]
    kept = []
    for flow, spec in zip(started, specs):
        action = data.draw(st.sampled_from(("keep", "keep", "abort", "reroute")))
        if action == "abort":
            fabric.abort_flow(flow)
            continue
        if action == "reroute":
            other = data.draw(st.sampled_from(specs))
            fabric.reroute_flow(flow, [links[i] for i in other["path"]])
        kept.append((flow, spec))
    kwargs = _solver_inputs([f for f, _ in kept], [s for _, s in kept], links, scale, overrides)
    return fabric, kwargs


class ColumnsOnly(RowRates):
    """Row-aligned caps that fail any per-flow lookup."""

    __slots__ = ()

    def __getitem__(self, flow_id):
        raise AssertionError("caps read one flow at a time")


def assert_same_bits(flows, cache, kwargs):
    expected = max_min_shares_reference(flows, cache=cache, **kwargs)
    got = _max_min_shares_python(flows, cache=cache, **kwargs)
    assert list(got) == list(expected)
    assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]


class TestExactAgainstReference:
    @given(problem=filler_problems(), cached=st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_same_dict_as_reference(self, problem, cached):
        capacities, specs, scale, overrides = problem
        topo, hub, links = _star(capacities)
        flows = [
            Flow(
                hub,
                hub,
                1e9,
                [links[i] for i in spec["path"]],
                priority_weight=spec["priority_weight"],
                multiplicity=spec["multiplicity"],
                app_limit_bps=spec["app_limit_bps"],
            )
            for spec in specs
        ]
        cache = IncidenceCache(flows) if cached else None
        assert_same_bits(flows, cache, _solver_inputs(flows, specs, links, scale, overrides))

    @given(problem=filler_problems(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_dict_on_fabric_active_list(self, problem, data):
        """On the fabric's trusted active list, after departures and reroutes
        have moved flows to the back of their links' buckets."""
        fabric, kwargs = _fabric_problem(problem, data)
        flows = fabric.active_flows
        assert flows is fabric.incidence.trusted_flows
        assert_same_bits(flows, fabric.incidence, kwargs)

    @given(problem=filler_problems(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_caps_give_the_same_dict(self, problem, data):
        """Caps handed over as a RowRates of the fabric's table, with its
        trusted active list, are read from the table's columns: the same
        dict, bit for bit, as the dict path and the reference."""
        fabric, kwargs = _fabric_problem(problem, data)
        table = fabric.incidence.table()
        flows = fabric.active_flows
        assert flows is fabric.incidence.trusted_flows
        assert_same_bits(flows, fabric.incidence, kwargs)
        vector = np.zeros(table.num_rows)
        for flow in flows:
            vector[flow._index] = kwargs["demand_caps"].get(flow.flow_id, math.inf)
        expected = _max_min_shares_python(flows, cache=fabric.incidence, **kwargs)
        kwargs["demand_caps"] = ColumnsOnly(table, vector)
        got = _max_min_shares_python(flows, cache=fabric.incidence, **kwargs)
        assert list(got) == list(expected)
        assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]

    def test_tied_links_sharing_a_flow(self):
        """Two links tie at one fair share and share a flow.  Freezing that
        flow on the first link moves the second link's share by rounding,
        and the second link must freeze at its recomputed share."""
        rng = np.random.default_rng(3)
        for share in rng.uniform(0.5 * MBPS, 50 * MBPS, size=200):
            topo, hub, links = _star([2 * share, 3 * share])
            flows = [
                Flow(hub, hub, 1e9, links, priority_weight=2.0),
                Flow(hub, hub, 1e9, [links[1]]),
            ]
            for cache in (None, IncidenceCache(flows)):
                assert_same_bits(flows, cache, {})

    def test_non_positive_weight_raises_only_with_a_positive_cap(self):
        topo, hub, links = _star([10 * MBPS])
        flows = [Flow(hub, hub, 1e9, [links[0]]) for _ in range(2)]
        bad = {flows[0].flow_id: 0.0}
        for filler in (max_min_shares_reference, _max_min_shares_python):
            with pytest.raises(ValueError):
                filler(flows, weights=bad)
            rates = filler(flows, weights=bad, demand_caps={flows[0].flow_id: 0.0})
            assert rates == {flows[0].flow_id: 0.0, flows[1].flow_id: 10 * MBPS}
