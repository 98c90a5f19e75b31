"""Tests for the incremental (delta) water-filler.

The contract under test: after any sequence of churn — flow arrivals,
departures, priority-weight changes, demand-cap changes and link-capacity
writes — the delta filler's incremental solves must agree to 1e-9 on every
flow with the Python filler and with a full solve of a new delta filler,
while actually solving incrementally (small dirty regions) on sparse churn
and falling back to a full solve when the dirty region grows too large.  A
flow list the cache does not cover goes to the Python filler.
"""

import numpy as np
import pytest

from repro.network.flow import Flow
from repro.network.fluid import AUTO_NUMPY_MIN_FLOWS, _max_min_shares_python, max_min_shares
from repro.network.fluid_fast import MAX_DIRTY_FRACTION, DeltaWaterFiller, RowRates
from repro.network.incidence import IncidenceCache
from repro.network.routing import Router
from repro.network.topology import ChangeLog, Topology

from maxmin_reference import effective_cap

MBPS = 1e6


def build_line(num_links, capacities):
    topo = Topology("line")
    nodes = [topo.add_switch(f"n{i}", level=1) for i in range(num_links + 1)]
    for (a, b), cap in zip(zip(nodes, nodes[1:]), capacities):
        topo.add_duplex_link(a, b, cap, 0.001)
    return topo, nodes


class ChurningScenario:
    """A line-topology flow population under scripted random churn."""

    def __init__(self, seed, num_links=6):
        self.rng = np.random.default_rng(seed)
        capacities = self.rng.uniform(10 * MBPS, 200 * MBPS, size=num_links)
        self.num_links = num_links
        self.topo, self.nodes = build_line(num_links, capacities)
        self.router = Router(self.topo)
        self.flows = []
        self.caps = {}
        for _ in range(int(self.rng.integers(5, 30))):
            self._add_flow()
        self.cache = IncidenceCache(self.flows)
        self.delta = DeltaWaterFiller.attach(self.cache)

    def _make_flow(self):
        rng = self.rng
        i = int(rng.integers(0, self.num_links))
        j = int(rng.integers(i + 1, self.num_links + 1))
        kw = {}
        if rng.random() < 0.4:
            kw["priority_weight"] = float(rng.uniform(0.25, 4.0))
        if rng.random() < 0.3:
            kw["app_limit_bps"] = float(rng.uniform(1 * MBPS, 150 * MBPS))
        if rng.random() < 0.25:
            # Aggregate flows: one row standing in for up to a few thousand
            # sessions, exercising the multiplicity-weighted solver paths.
            kw["multiplicity"] = int(rng.integers(2, 5000))
        src, dst = self.nodes[i], self.nodes[j]
        return Flow(src, dst, 1e9, self.router.path(src, dst), **kw)

    def _add_flow(self):
        flow = self._make_flow()
        self.flows.append(flow)
        r = self.rng.random()
        if r < 0.3:
            self.caps[flow.flow_id] = float(self.rng.uniform(0.5 * MBPS, 150 * MBPS))
        elif r < 0.35:
            self.caps[flow.flow_id] = 0.0
        if self.rng.random() < 0.2:
            flow.priority_weight = float(self.rng.uniform(0.5, 3.0))
        return flow

    def churn(self):
        """One random churn event against flows, caps and weights."""
        rng = self.rng
        move = rng.random()
        if move < 0.35 or not self.flows:
            flow = self._add_flow()
            self.cache.add_flow(flow)
        elif move < 0.6:
            victim = self.flows.pop(int(rng.integers(0, len(self.flows))))
            self.cache.remove_flow(victim)
            self.caps.pop(victim.flow_id, None)
        elif move < 0.8:
            flow = self.flows[int(rng.integers(0, len(self.flows)))]
            self.caps[flow.flow_id] = float(rng.uniform(0.0, 150 * MBPS))
        else:
            flow = self.flows[int(rng.integers(0, len(self.flows)))]
            flow.priority_weight = float(rng.uniform(0.5, 3.0))


def copies_of(flows):
    """Unbound copies of ``flows``, same ids (the flows themselves stay in
    their own cache's table)."""
    return [
        Flow(
            f.src,
            f.dst,
            f.size_bytes,
            f.path,
            priority_weight=f.priority_weight,
            app_limit_bps=f.app_limit_bps,
            multiplicity=f.multiplicity,
            flow_id=f.flow_id,
        )
        for f in flows
    ]


def cold_solve(flows, caps=None):
    """A full solve: the first solve of a new delta filler, over copies of
    ``flows``."""
    return DeltaWaterFiller.attach(IncidenceCache(copies_of(flows))).solve(caps)


def arrival_solve(flows):
    """A full solve of a new delta filler over copies of all of ``flows``
    but the last, then that flow's arrival solved as churn.  Returns the
    second answer and the filler."""
    copies = copies_of(flows)
    cache = IncidenceCache(copies[:-1])
    filler = DeltaWaterFiller.attach(cache)
    filler.solve()
    cache.add_flow(copies[-1])
    return filler.solve(), filler


def assert_allocations_close(a, b, rel=1e-9):
    assert a.keys() == b.keys()
    for flow_id in a:
        tol = rel * max(1.0, abs(a[flow_id]))
        assert abs(a[flow_id] - b[flow_id]) <= tol, (
            f"flow {flow_id}: {a[flow_id]!r} vs {b[flow_id]!r}"
        )


class TestThreeWayChurnEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_churn_agrees_with_both_full_backends(self, seed):
        scenario = ChurningScenario(seed)
        for _ in range(25):
            scenario.churn()
            inc = scenario.delta.solve(scenario.caps)
            assert_allocations_close(inc, _max_min_shares_python(scenario.flows, scenario.caps))
            assert_allocations_close(inc, cold_solve(scenario.flows, scenario.caps))

    @pytest.mark.parametrize("seed", range(4))
    def test_capacity_writes_agree(self, seed):
        """Link capacities written between solves, as SLA boosts and
        dynamics scripts write them, reach the incremental solve."""
        scenario = ChurningScenario(seed + 100)
        rng = scenario.rng
        for _ in range(12):
            scenario.churn()
            for link in scenario.topo.links:
                if rng.random() < 0.3:
                    link.capacity_bps = float(rng.uniform(5 * MBPS, 100 * MBPS))
            inc = scenario.delta.solve(scenario.caps)
            assert_allocations_close(inc, _max_min_shares_python(scenario.flows, scenario.caps))
            assert_allocations_close(inc, cold_solve(scenario.flows, scenario.caps))

    def test_capacity_writes_past_the_log_reach_the_solve(self):
        """More capacity writes between two solves than the change log
        keeps: the filler compares every slot."""
        scenario = ChurningScenario(13)
        scenario.delta.solve(scenario.caps)
        link = scenario.flows[0].path[0]
        for value in np.linspace(5 * MBPS, 50 * MBPS, 2 * ChangeLog.KEEP + 1):
            link.capacity_bps = float(value)
        inc = scenario.delta.solve(scenario.caps)
        assert_allocations_close(inc, _max_min_shares_python(scenario.flows, scenario.caps))

    def test_sparse_churn_actually_solves_incrementally(self):
        scenario = ChurningScenario(7, num_links=12)
        # Steady state first (the cold start is a full solve)...
        scenario.delta.solve()
        full_before = scenario.delta.solves_full
        # ...then single-flow churn events must take the incremental path.
        for _ in range(10):
            flow = scenario._make_flow()
            scenario.flows.append(flow)
            scenario.cache.add_flow(flow)
            scenario.delta.solve()
        assert scenario.delta.solves_incremental >= 10
        assert scenario.delta.solves_full == full_before
        # On a line topology every flow is transitively coupled, so the
        # dirty component may cover the whole population — but never more.
        assert scenario.delta.dirty_rows_max <= len(scenario.flows)

    def test_disjoint_components_keep_dirty_regions_local(self):
        """Churn in one island must not drag the other islands into the solve."""
        topo = Topology("islands")
        pairs = []
        for i in range(8):
            a = topo.add_switch(f"a{i}", level=1)
            b = topo.add_switch(f"b{i}", level=1)
            topo.add_duplex_link(a, b, 100 * MBPS, 0.001)
            pairs.append((a, b))
        router = Router(topo)
        flows = []
        for a, b in pairs:
            flows.extend(Flow(a, b, 1e9, router.path(a, b)) for _ in range(4))
        cache = IncidenceCache(flows)
        delta = DeltaWaterFiller.attach(cache)
        delta.solve()

        a, b = pairs[0]
        flow = Flow(a, b, 1e9, router.path(a, b))
        flows.append(flow)
        cache.add_flow(flow)
        inc = delta.solve()
        assert delta.solves_incremental >= 1
        assert delta.dirty_rows_max <= 5  # island 0's four flows + the arrival
        assert_allocations_close(inc, _max_min_shares_python(flows))

    def test_unchanged_problem_is_a_noop(self):
        scenario = ChurningScenario(11)
        first = scenario.delta.solve()
        again = scenario.delta.solve()
        assert first == again
        assert scenario.delta.solves_noop >= 1


class TwinIslands:
    """The same flows twice, each copy in its own cache with its own filler.

    Flows run over islands of one link each, so a few changed caps dirty a
    few islands and solve incrementally while many fall back.  Every flow
    always has a cap (inf for none), so a dict of caps and a row-aligned
    vector of them say the same thing.
    """

    COUNTERS = ("solves_full", "solves_incremental", "solves_noop", "fallback_large_region")

    def __init__(self, seed, islands=12, per_island=8):
        self.rng = np.random.default_rng(seed)
        topo = Topology("islands")
        self.pairs = []
        for i in range(islands):
            a = topo.add_switch(f"a{i}", level=1)
            b = topo.add_switch(f"b{i}", level=1)
            topo.add_duplex_link(a, b, float(self.rng.uniform(10 * MBPS, 200 * MBPS)), 0.001)
            self.pairs.append((a, b))
        self.router = Router(topo)
        self.caps = {}
        self.sides = []
        for _ in range(2):
            cache = IncidenceCache()
            DeltaWaterFiller.attach(cache)
            cache.table()
            self.sides.append(([], cache))
        self._ids = iter(range(10**6))
        for _ in range(islands * per_island):
            self.add()
        self.add(pathless=True)  # gets nothing, whatever its cap

    def draw_cap(self):
        r = self.rng.random()
        if r < 0.1:
            return 0.0
        if r < 0.2:
            return float("inf")
        return float(self.rng.uniform(1 * MBPS, 100 * MBPS))

    def add(self, pathless=False):
        rng = self.rng
        a, b = self.pairs[int(rng.integers(len(self.pairs)))]
        path = [] if pathless else self.router.path(a, b)
        kw = dict(
            priority_weight=float(rng.choice([1.0, 0.5, 2.0])),
            multiplicity=int(rng.choice([1, 1, 1, 40])),
            app_limit_bps=float(rng.choice([float("inf")] * 3 + [20 * MBPS])),
            flow_id=next(self._ids),
        )
        for flows, cache in self.sides:
            flow = Flow(a, b, 1e9, path, **kw)
            flows.append(flow)
            cache.add_flow(flow)
        self.caps[kw["flow_id"]] = self.draw_cap()

    def remove(self):
        index = int(self.rng.integers(len(self.sides[0][0])))
        for flows, cache in self.sides:
            flow = flows.pop(index)
            cache.remove_flow(flow)
        del self.caps[flow.flow_id]

    def solve(self, rows=True):
        """Solve the dict side with dict caps and the other with a RowRates
        (or with the dict too); both answer the same, bit for bit."""
        (dict_flows, dict_cache), (row_flows, row_cache) = self.sides
        expected = dict_cache.delta.solve(dict(self.caps))
        caps = dict(self.caps)
        if rows:
            table = row_cache.table()
            vector = np.zeros(table.num_rows)
            for flow in row_flows:
                vector[flow._index] = self.caps[flow.flow_id]
            caps = RowRates(table, vector)
        got = row_cache.delta.solve(caps)
        assert [expected[f.flow_id].hex() for f in dict_flows] == [
            got[f.flow_id].hex() for f in row_flows
        ]
        counts = [
            [getattr(cache.delta, name) for name in self.COUNTERS] for _, cache in self.sides
        ]
        assert counts[0] == counts[1]
        return dict(zip(self.COUNTERS, counts[0]))


class TestRowCaps:
    """Caps handed to the delta filler as a RowRates give the dict path's
    rates and the dict path's solve counters."""

    @pytest.mark.parametrize("seed", range(4))
    def test_row_caps_match_dict_caps_over_churn(self, seed):
        twins = TwinIslands(seed)
        rng = twins.rng
        searches = []
        for _, cache in twins.sides:
            searches.append([])
            search = cache.delta._component_of

            def counted(*args, _search=search, _calls=searches[-1]):
                _calls.append(1)
                return _search(*args)

            cache.delta._component_of = counted
        twins.solve()
        for step in range(36):
            if step % 4 == 1:
                twins.add()
            elif step % 4 == 3:
                twins.remove()
            mode = step % 3
            if mode == 0:  # every cap changes
                for flow_id in twins.caps:
                    twins.caps[flow_id] = float(rng.uniform(1 * MBPS, 100 * MBPS))
            elif mode == 1:  # a few change
                for flow_id in rng.choice(sorted(twins.caps), size=2, replace=False):
                    twins.caps[int(flow_id)] = twins.draw_cap()
            # Now and then the row side gets a dict: it must switch both ways.
            twins.solve(rows=step % 7 != 5)
        counts = twins.solve()
        assert all(counts[name] > 0 for name in TwinIslands.COUNTERS)
        # Both sides compare their caps as one row-aligned vector, so they
        # search for components equally often.
        assert len(searches[1]) == len(searches[0])

    def test_a_full_solve_reads_dict_caps_by_the_per_flow_rule(self):
        """Dict caps become effective caps with array operations; each must
        equal the per-flow rule's, bit for bit: NaN, zero, negative and
        infinite caps, caps above an app limit, flows without a cap, a
        pathless flow and a cap of a flow not in the table.  The full solve
        reads every cap, an incremental one those that changed and the
        flows that arrived."""
        twins = TwinIslands(5)
        flows, cache = twins.sides[0]
        filler = cache.delta
        table = cache.table()

        def check(caps):
            filler.solve(caps)
            got = [filler._cap_row[table.row_of[flow.flow_id]].hex() for flow in flows]
            assert got == [effective_cap(flow, caps).hex() for flow in flows]

        special = [float("nan"), 0.0, -1.0, float("inf"), 25 * MBPS, None]
        caps = {}
        for i, flow in enumerate(flows):
            value = special[i % len(special)]
            if value is not None:
                caps[flow.flow_id] = value
        caps[-1] = 1 * MBPS
        check(caps)
        assert filler.solves_full == 1

        # Every cap a plain value, then the special values on one island
        # and an arrival without a cap: a few dirty rows, solved in place.
        caps = {flow.flow_id: 50 * MBPS for flow in flows}
        check(caps)
        link = flows[0].path[0]
        island = [flow for flow in flows if flow.path and flow.path[0] is link]
        for flow, value in zip(island, special):
            if value is None:
                del caps[flow.flow_id]
            else:
                caps[flow.flow_id] = value
        twins.add()
        incremental = filler.solves_incremental
        check(caps)
        assert filler.solves_incremental == incremental + 1

    def test_an_unchanged_nan_cap_leaves_its_row_clean(self):
        """Two NaN caps are the same cap: solving again with the same caps,
        one of them NaN, makes no-op solves on both the dict and the row
        side, not an incremental solve of the NaN's component each time."""
        twins = TwinIslands(5)
        for flow_id in twins.caps:
            twins.caps[flow_id] = 50 * MBPS
        twins.caps[next(iter(twins.caps))] = float("nan")
        before = twins.solve()
        dirty = [cache.delta.dirty_rows_total for _, cache in twins.sides]
        for _ in range(3):
            counts = twins.solve()
        assert counts["solves_noop"] == before["solves_noop"] + 3
        assert counts["solves_incremental"] == before["solves_incremental"]
        assert [cache.delta.dirty_rows_total for _, cache in twins.sides] == dirty


class TestFallbacks:
    def test_large_dirty_region_falls_back_to_full_solve(self):
        scenario = ChurningScenario(3)
        scenario.delta.solve()
        # Churn far more than MAX_DIRTY_FRACTION of the population at once
        # (also beyond the 64-row floor below which small problems never
        # bother falling back).
        n_churn = max(200, int(len(scenario.flows) * (MAX_DIRTY_FRACTION + 0.5)))
        for _ in range(n_churn):
            flow = scenario._make_flow()
            scenario.flows.append(flow)
            scenario.cache.add_flow(flow)
        before = scenario.delta.fallback_large_region + scenario.delta.solves_full
        inc = scenario.delta.solve()
        after = scenario.delta.fallback_large_region + scenario.delta.solves_full
        assert after > before
        assert_allocations_close(inc, _max_min_shares_python(scenario.flows))

    def test_slot_marks_past_the_log_make_a_full_solve(self):
        """More slot marks between two solves than the table's slot log
        keeps: the filler cannot tell which slots churned, so it solves in
        full, and gets a cold solve's bits."""
        topo = Topology("two lines")
        ends = []
        for name in "ab":
            nodes = [topo.add_switch(f"{name}{i}", level=1) for i in range(65)]
            for x, y in zip(nodes, nodes[1:]):
                topo.add_duplex_link(x, y, 100 * MBPS, 0.001)
            ends.append((nodes[0], nodes[-1]))
        router = Router(topo)

        def flow_on(line):
            src, dst = ends[line]
            return Flow(src, dst, 1e9, router.path(src, dst))

        # Line b holds enough pairs and rows that the churn on line a never
        # compacts the table (a compaction resets the log as well).
        flows = [flow_on(0) for _ in range(2)] + [flow_on(1) for _ in range(80)]
        cache = IncidenceCache(flows)
        filler = DeltaWaterFiller.attach(cache)
        filler.solve()
        table = cache.table()
        marks = table.slot_log.version
        while table.slot_log.version - marks <= 2 * ChangeLog.KEEP:
            churned = flow_on(0)
            cache.add_flow(churned)
            cache.remove_flow(churned)
        assert table.compactions == 0
        full, incremental = filler.solves_full, filler.solves_incremental
        rates = filler.solve()
        assert (filler.solves_full, filler.solves_incremental) == (full + 1, incremental)
        cold = cold_solve(flows)
        assert [rates[f.flow_id].hex() for f in flows] == [cold[f.flow_id].hex() for f in flows]

    def test_a_cleared_cache_gets_a_full_solve(self):
        """After ``IncidenceCache.clear()`` the flows come back in another
        order, one fewer, on a new table: the next solve is a full one, and
        gets a cold solve's bits."""
        scenario = ChurningScenario(17)
        scenario.delta.solve(scenario.caps)
        scenario.cache.clear()
        scenario.flows = scenario.flows[:0:-1]
        for flow in scenario.flows:
            scenario.cache.add_flow(flow)
        full = scenario.delta.solves_full
        rates = scenario.delta.solve(scenario.caps)
        assert scenario.delta.solves_full == full + 1
        cold = cold_solve(scenario.flows, scenario.caps)
        assert [rates[f.flow_id].hex() for f in scenario.flows] == [
            cold[f.flow_id].hex() for f in scenario.flows
        ]
        assert_allocations_close(rates, _max_min_shares_python(scenario.flows, scenario.caps))

    def test_uncovered_flow_list_gets_the_python_filler(self):
        """At scale, a list the cache does not cover is solved by the Python
        filler without the cache, counted in ``fallback_stale``, and leaves
        the delta filler's state alone."""
        scenario = ChurningScenario(5)
        while len(scenario.flows) < AUTO_NUMPY_MIN_FLOWS:
            flow = scenario._add_flow()
            scenario.cache.add_flow(flow)
        scenario.delta.solve(scenario.caps)
        stray = scenario._make_flow()  # never added to the cache
        flows = scenario.flows + [stray]
        before = scenario.delta.stats()
        got = max_min_shares(flows, demand_caps=scenario.caps, cache=scenario.cache)
        expected = _max_min_shares_python(flows, demand_caps=scenario.caps)
        assert list(got.items()) == list(expected.items())
        after = scenario.delta.stats()
        assert after.pop("fallback_stale") == before.pop("fallback_stale") + 1
        assert after == before

    def test_auto_solver_uses_delta_on_large_cached_populations(self):
        scenario = ChurningScenario(9)
        while len(scenario.flows) < AUTO_NUMPY_MIN_FLOWS:
            flow = scenario._make_flow()
            scenario.flows.append(flow)
            scenario.cache.add_flow(flow)
        before = scenario.delta.solves_full + scenario.delta.solves_incremental
        max_min_shares(scenario.flows, cache=scenario.cache)
        assert scenario.delta.solves_full + scenario.delta.solves_incremental > before


class TestAggregateEquivalence:
    """Aggregate(N) ≡ N discrete flows, on rates and on completion times.

    The tentpole invariant: a multiplicity-N flow must receive exactly N
    times the rate a single session would get in a population of N discrete
    clones, in both water-fillers, and its sessions must finish at the same
    instant the discrete sessions would.
    """

    def _mirror_populations(self, seed, n_specs=6):
        """Two flow sets over one line topology: aggregates and their clones."""
        rng = np.random.default_rng(seed)
        num_links = 5
        capacities = rng.uniform(20 * MBPS, 200 * MBPS, size=num_links)
        topo, nodes = build_line(num_links, capacities)
        router = Router(topo)
        aggregates, discretes = [], []
        for _ in range(n_specs):
            i = int(rng.integers(0, num_links))
            j = int(rng.integers(i + 1, num_links + 1))
            src, dst = nodes[i], nodes[j]
            path = router.path(src, dst)
            n = int(rng.integers(1, 40))
            weight = float(rng.uniform(0.25, 4.0))
            kw = {"priority_weight": weight}
            if rng.random() < 0.4:
                kw["app_limit_bps"] = float(rng.uniform(1 * MBPS, 50 * MBPS))
            aggregates.append(Flow(src, dst, 1e9, path, multiplicity=n, **kw))
            discretes.append([Flow(src, dst, 1e9, path, **kw) for _ in range(n)])
        return aggregates, discretes

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("solver", ["python", "delta", "delta-incremental"])
    def test_aggregate_rate_is_n_times_the_discrete_session_rate(self, seed, solver):
        aggregates, discretes = self._mirror_populations(seed)
        flat = [f for clones in discretes for f in clones]
        if solver == "delta-incremental":
            # The last aggregate's arrival solved as churn, against the
            # Python filler's discrete sessions.
            agg, filler = arrival_solve(aggregates)
            assert filler.solves_incremental == 1
            disc = _max_min_shares_python(flat)
        else:
            solve = _max_min_shares_python if solver == "python" else cold_solve
            agg = solve(aggregates)
            disc = solve(flat)
        self._assert_per_session_rates(aggregates, discretes, agg, disc, solver)

    @pytest.mark.parametrize("seed", range(3))
    def test_runtime_weight_changes_stay_per_session(self, seed):
        """A priority weight written between two solves is per session: the
        incremental solve counts it × multiplicity, as N clones carrying it
        would weigh."""
        aggregates, discretes = self._mirror_populations(seed + 50, n_specs=4)
        flat = [f for clones in discretes for f in clones]
        cache = IncidenceCache(aggregates)
        filler = DeltaWaterFiller.attach(cache)
        filler.solve()
        rng = np.random.default_rng(seed + 999)
        for i, (aflow, clones) in enumerate(zip(aggregates, discretes)):
            if i == 0 or rng.random() < 0.6:
                weight = float(rng.uniform(0.5, 3.0))
                aflow.priority_weight = weight
                for clone in clones:
                    clone.priority_weight = weight
        agg = filler.solve()
        assert filler.solves_incremental == 1
        assert_allocations_close(agg, cold_solve(aggregates))
        disc = _max_min_shares_python(flat)
        self._assert_per_session_rates(aggregates, discretes, agg, disc, "delta-incremental")

    @staticmethod
    def _assert_per_session_rates(aggregates, discretes, agg, disc, solver):
        for aflow, clones in zip(aggregates, discretes):
            per_session = agg[aflow.flow_id] / aflow.multiplicity
            for clone in clones:
                expected = disc[clone.flow_id]
                tol = 1e-9 * max(1.0, abs(expected))
                assert abs(per_session - expected) <= tol, (
                    f"mult={aflow.multiplicity}: per-session {per_session!r} "
                    f"vs discrete {expected!r} ({solver})"
                )

    def test_aggregate_fct_matches_n_discrete_sessions(self):
        """One aggregate upload finishes exactly when its N clones would."""
        from repro.network.fabric import FabricSimulator
        from repro.network.transport import IdealMaxMinTransport
        from repro.sim.engine import Simulator

        n = 25
        size = 40e6

        def run(multiplicities):
            rng = np.random.default_rng(123)
            capacities = rng.uniform(50 * MBPS, 150 * MBPS, size=4)
            topo, nodes = build_line(4, capacities)
            sim = Simulator()
            fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
            finished = {}
            fabric.on_flow_finished(lambda f, now: finished.setdefault(f.flow_id, now))
            flows = [
                fabric.start_flow(nodes[0], nodes[4], size, multiplicity=m)
                for m in multiplicities
            ]
            # A competing cross flow so rates change mid-transfer.
            fabric.start_flow(nodes[1], nodes[3], size / 2.0)
            fabric.drain()
            return [finished[f.flow_id] for f in flows]

        (agg_fct,) = set(run([n]))
        discrete_fcts = run([1] * n)
        for fct in discrete_fcts:
            assert fct == pytest.approx(agg_fct, rel=1e-9)

    def test_multiplicity_one_is_bit_identical_to_default(self):
        """multiplicity=1 must take the exact historical code path."""
        rng = np.random.default_rng(21)
        capacities = rng.uniform(20 * MBPS, 200 * MBPS, size=5)
        topo, nodes = build_line(5, capacities)
        router = Router(topo)

        def population(**extra):
            flows = []
            for i in range(12):
                src, dst = nodes[i % 5], nodes[5 - (i % 3)]
                if src is dst:
                    dst = nodes[0]
                flows.append(
                    Flow(
                        src,
                        dst,
                        1e9,
                        router.path(src, dst),
                        priority_weight=1.0 + (i % 4) * 0.5,
                        **extra,
                    )
                )
            return flows

        base = cold_solve(population())
        ones = cold_solve(population(multiplicity=1))
        assert sorted(base.values()) == sorted(ones.values())


class TestIncidenceTableCompaction:
    def test_tombstones_compact_and_results_stay_correct(self):
        from repro.network.incidence import _COMPACT_MIN_DEAD_PAIRS

        rng = np.random.default_rng(17)
        capacities = rng.uniform(50 * MBPS, 100 * MBPS, size=4)
        topo, nodes = build_line(4, capacities)
        router = Router(topo)

        def make_flow():
            return Flow(nodes[0], nodes[4], 1e9, router.path(nodes[0], nodes[4]))

        flows = [make_flow() for _ in range(64)]
        cache = IncidenceCache(flows)
        delta = DeltaWaterFiller.attach(cache)
        delta.solve()

        # Each flow crosses 4 links; retire/admit until the dead-pair count
        # crosses the compaction threshold several times over.
        events = _COMPACT_MIN_DEAD_PAIRS // 2 + 200
        for _ in range(events):
            victim = flows.pop(int(rng.integers(0, len(flows))))
            cache.remove_flow(victim)
            flows.append(make_flow())
            cache.add_flow(flows[-1])
        inc = delta.solve()

        stats = delta.stats()
        assert stats["table_compactions"] >= 1
        assert stats["table_dead_pairs"] < _COMPACT_MIN_DEAD_PAIRS
        assert_allocations_close(inc, _max_min_shares_python(flows))
