"""The fabric's per-event path under churn keeps every bit.

* The scalar water-filling kernel returns what the array kernel returns,
  byte for byte and in the same number of rounds.
* The fabric's active list, kept in place, is always its active flows in
  arrival order.
* The offered load the fabric keeps per slot between advances equals a full
  ``bincount`` after every advance.
* A solve that reads its changed weights and capacities from the change logs
  equals a cold full solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import FabricSimulator, _LinkLoads
from repro.network.flow import FlowKind
from repro.network.fluid import AUTO_NUMPY_MIN_FLOWS
from repro.network.fluid_fast import (
    SCALAR_MAX_PAIRS,
    _waterfill,
    _waterfill_kernel,
    _waterfill_scalar,
)
from repro.network.incidence import IncidenceTable
from repro.network.leafspine import build_leaf_spine
from repro.network.routing import EcmpRouter
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.network.transport.tcp import TcpTransport
from repro.sim.engine import Simulator

MBPS = 1e6
INF = float("inf")


# -- the scalar kernel ---------------------------------------------------------------


@st.composite
def kernel_problems(draw):
    """COO water-filling problems shaped like the fabric's components.

    Flow 0 and link 0 are the table's scratch row and slot (cap 0, capacity
    inf).  Capacities come from a few values, some exactly ``share × Σ
    weights`` of a link's flows, or a few floats away from it, so links tie
    exactly or within the kernel's 1e-9 tolerance; weights are aggregate
    (priority × multiplicity); caps mix 0, inf and values near the shares.
    """
    num_flows = draw(st.integers(1, 24))
    num_links = draw(st.integers(1, 10))
    pair_flow, pair_link = [0], [0]
    for f in range(1, num_flows + 1):
        path = draw(st.lists(st.integers(1, num_links), min_size=0, max_size=4))
        for link in path:
            pair_flow.append(f)
            pair_link.append(link)
    priority = st.sampled_from([1.0, 0.5, 2.0, 1.7])
    multiplicity = st.sampled_from([1, 1, 2, 40, 500])
    w = [1.0] + [draw(priority) * draw(multiplicity) for _ in range(num_flows)]
    share = draw(st.sampled_from([1 * MBPS, 3 * MBPS, 10 * MBPS / 3]))
    cap = [0.0] + [
        draw(st.sampled_from([0.0, INF, INF, share, share * 2.0, 7 * MBPS, 2.5 * MBPS]))
        for _ in range(num_flows)
    ]
    link_cap = [INF]
    for link in range(1, num_links + 1):
        on_link = [w[f] for f, l in zip(pair_flow, pair_link) if l == link]
        tied = []
        if on_link:
            exact = share * sum(on_link)
            tied = [exact, exact, np.nextafter(exact, INF), np.nextafter(exact, 0.0),
                    exact + 4 * np.spacing(exact)]
        link_cap.append(
            float(draw(st.sampled_from([10 * MBPS, 10 * MBPS, 25 * MBPS, INF, 0.0] + tied)))
        )
    return (
        np.asarray(pair_flow, dtype=np.intp),
        np.asarray(pair_link, dtype=np.intp),
        np.asarray(w),
        np.asarray(cap),
        np.asarray(link_cap),
    )


class TestScalarKernel:
    @settings(max_examples=300, deadline=None)
    @given(problem=kernel_problems(), data=st.data())
    def test_same_bytes_and_rounds_as_the_array_kernel(self, problem, data):
        pair_flow, pair_link, w, cap, link_cap = problem
        expected, rounds = _waterfill_kernel(pair_flow, pair_link, w, cap, link_cap)
        got, got_rounds = _waterfill_scalar(
            pair_flow.tolist(), pair_link.tolist(), w.tolist(), cap.tolist(), link_cap.tolist()
        )
        assert np.asarray(got).tobytes() == expected.tobytes()
        assert got_rounds == rounds
        # Listing the pairs slot by slot, each slot's in pair order (how a
        # component hands them over), changes neither kernel's answer,
        # whichever order the slots come in.
        descending = data.draw(st.booleans())
        order = np.argsort(-pair_link if descending else pair_link, kind="stable")
        for solve in (_waterfill, _waterfill_kernel):
            rate, count = solve(pair_flow[order], pair_link[order], w, cap, link_cap)
            assert rate.tobytes() == expected.tobytes() and count == rounds

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_tied_links_freeze_together_at_round_start_shares(self, ulps):
        # Links 1 and 2 tie at 5 Mb/s per unit weight, exactly or to one
        # float, which is within the 1e-9 tolerance; flow 2 crosses both and
        # takes link 1's share, flow 3 (weight 2) link 2's share at the
        # round's start.
        link_2 = 15 * MBPS
        for _ in range(ulps):
            link_2 = float(np.nextafter(link_2, INF))
        pair_flow = [1, 2, 2, 3, 4]
        pair_link = [1, 1, 2, 2, 3]
        w = [1.0, 1.0, 1.0, 2.0, 1.0]
        cap = [0.0, INF, INF, INF, INF]
        link_cap = [INF, 10 * MBPS, link_2, 40 * MBPS]
        args = [np.asarray(v) for v in (pair_flow, pair_link, w, cap, link_cap)]
        expected, rounds = _waterfill_kernel(*args)
        got, got_rounds = _waterfill_scalar(pair_flow, pair_link, w, cap, link_cap)
        assert np.asarray(got).tobytes() == expected.tobytes() and got_rounds == rounds
        assert got[1:3] == [5 * MBPS, 5 * MBPS]
        assert got[3] == link_2 / 3.0 * 2.0

    def test_the_dispatch_picks_by_pair_count(self, monkeypatch):
        import repro.network.fluid_fast as fluid_fast

        calls = []
        monkeypatch.setattr(
            fluid_fast, "_waterfill_scalar",
            lambda *args: calls.append("scalar") or _waterfill_scalar(*args),
        )
        monkeypatch.setattr(
            fluid_fast, "_waterfill_kernel",
            lambda *args: calls.append("array") or _waterfill_kernel(*args),
        )
        for pairs in (SCALAR_MAX_PAIRS - 1, SCALAR_MAX_PAIRS):
            pair_flow = np.arange(pairs) % 7
            pair_link = np.arange(pairs) % 5
            fluid_fast._waterfill(
                pair_flow, pair_link, np.ones(7), np.full(7, INF), np.full(5, 10 * MBPS)
            )
        assert calls == ["scalar", "array"]


# -- the fabric under churn ------------------------------------------------------------


@pytest.fixture
def incremental_loads(monkeypatch):
    """Offered loads kept by re-adding changed slots even on small tables,
    which otherwise take one full ``bincount`` per advance."""
    monkeypatch.setattr(_LinkLoads, "INCREMENTAL_MIN_PAIRS", 0)


class ChurnChecks:
    """Wraps a fabric so that every advance, recompute and event is checked."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.advances = 0
        self.checked_loads = 0
        self.checked_rates = 0
        advance = fabric._advance_columns
        recompute = fabric._recompute

        def checked_advance(dt, table):
            done = advance(dt, table)
            self.check_loads(table)
            self.advances += 1
            return done

        def checked_recompute(now):
            recompute(now)
            table = fabric.incidence.built_table
            if (
                isinstance(fabric.transport, IdealMaxMinTransport)
                and table is not None
                and not fabric._churn_depth
                and len(fabric.active_flows) >= AUTO_NUMPY_MIN_FLOWS
            ):
                # The incremental solve's rates are a full solve's, bit for bit.
                live = table.live[: table.num_rows]
                expected = _cold_full_rates(table)[live]
                assert table.current_rate[: table.num_rows][live].tobytes() == expected.tobytes()
                self.checked_rates += 1

        fabric._advance_columns = checked_advance
        fabric._recompute = checked_recompute

    def check_active(self):
        fabric = self.fabric
        listed = fabric.active_flows
        # The cache's flows, in arrival (creation, so flow id) order.
        cached = sorted(fabric.incidence.flows, key=lambda flow: flow.flow_id)
        assert len(listed) == len(cached)
        assert all(a is b for a, b in zip(listed, cached))

    def check_loads(self, table):
        loads = self.fabric._loads
        if loads.layout != table.layout_version:
            return  # summed in the per-flow order below 64 flows
        pairs = table.pair_count
        n_slots = table.num_slots
        full = np.bincount(
            table.pair_link[:pairs],
            weights=table.demand_rate[table.pair_flow[:pairs]],
            minlength=n_slots,
        )
        full[IncidenceTable.SCRATCH] = 0.0
        assert loads.offered[:n_slots].tobytes() == full.tobytes()
        entries = table.slot_link[:n_slots]
        capacity = table.links.capacity[entries]
        carry = np.zeros(loads.carry.shape[0])
        carry[entries] = np.minimum(full, capacity)
        assert loads.carry.tobytes() == carry.tobytes()
        assert loads.overloaded == set(entries[full > capacity].tolist())
        self.checked_loads += 1


def _leaf_spine_fabric(transport, seed, buffer_bytes=None, leaves=4, hosts_per_leaf=6):
    topo = build_leaf_spine(
        num_leaves=leaves, num_spines=2, hosts_per_leaf=hosts_per_leaf,
        host_link_bps=100 * MBPS, fabric_link_bps=200 * MBPS, buffer_bytes=buffer_bytes,
    )
    sim = Simulator()
    fabric = FabricSimulator(sim, topo, transport)
    return sim, fabric, topo, np.random.default_rng(seed)


def _churn(sim, fabric, topo, rng, checks, population, steps, fail_at=None, local=False):
    """Random arrivals (some in same-size twins that end together), aborts
    (some from inside a completion callback, which moves the flows after
    them), reroutes, capacity changes with and without a recompute and a
    link failure, checked at every event.  ``local``: flows stay in their
    rack, so a change dirties a small component."""
    hosts = topo.hosts()
    racks = {}
    for host in hosts:
        racks.setdefault(host.attrs["rack"], []).append(host)
    racks = list(racks.values())
    finished = []

    def on_finished(flow, now):
        finished.append(flow)
        if len(finished) % 4 == 0 and fabric.active_flows:
            fabric.abort_flow(fabric.active_flows[0])

    fabric.on_flow_finished(on_finished)

    def start(size):
        pool = racks[int(rng.integers(len(racks)))] if local else hosts
        i, j = rng.choice(len(pool), size=2, replace=False)
        return fabric.start_flow(pool[int(i)], pool[int(j)], size, FlowKind.DATA)

    for _ in range(population):
        start(float(rng.uniform(5e5, 5e6)))
    for step in range(steps):
        sim.call_in(float(rng.uniform(0.0, 0.002)), start, float(rng.uniform(1e4, 4e5)))
        if step % 7 == 0:
            # Twins on one path end at the same instant.
            twin = start(2e5)
            fabric.start_flow(twin.src, twin.dst, 2e5, FlowKind.DATA, path=list(twin.path))
        if step % 11 == 3 and fabric.active_flows:
            fabric.abort_flow(fabric.active_flows[int(rng.integers(len(fabric.active_flows)))])
        if step % 13 == 5 and fabric.active_flows:
            flow = fabric.active_flows[int(rng.integers(len(fabric.active_flows)))]
            paths = EcmpRouter(topo).equal_cost_paths(flow.src, flow.dst)
            if len(paths) > 1:
                fabric.reroute_flow(flow, paths[int(rng.integers(len(paths)))])
        if step % 17 == 9:
            link = topo.links[int(rng.integers(len(topo.links)))]
            fabric.set_link_capacity(link, float(rng.choice([50, 100, 200])) * MBPS)
        if step % 19 == 7 and fabric.active_flows:
            # An SLA-style write straight on a loaded link: the next advance
            # sees it before any recompute does.
            flow = fabric.active_flows[int(rng.integers(len(fabric.active_flows)))]
            flow.path[0].capacity_bps *= float(rng.choice([0.5, 2.0]))
        if step == fail_at:
            uplinks = [l for l in topo.links if l.is_uplink and l.src.level > 0]
            fabric.fail_link(uplinks[0])
        checks.check_active()
        for _event in range(3):
            if sim.peek() is None:
                break
            sim.step()
            checks.check_active()


@pytest.mark.usefixtures("incremental_loads")
class TestActiveListAndLoads:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("population", [20, 90])
    def test_ideal_transport(self, seed, population):
        sim, fabric, topo, rng = _leaf_spine_fabric(IdealMaxMinTransport(), seed)
        checks = ChurnChecks(fabric)
        _churn(sim, fabric, topo, rng, checks, population, steps=120, fail_at=60)
        fabric.drain()
        checks.check_active()
        if population >= 64:
            # The table exists from the first advance, and stays while the
            # population drains below 64 flows.
            assert checks.checked_loads > 100
            assert fabric.incidence.built_table.num_rows > 200
        assert fabric.flows_aborted_on_failure + len(fabric.finished_flows) > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_lossy_tcp(self, seed):
        sim, fabric, topo, rng = _leaf_spine_fabric(TcpTransport(), seed, buffer_bytes=3e4)
        checks = ChurnChecks(fabric)
        _churn(sim, fabric, topo, rng, checks, 80, steps=80, fail_at=40)
        checks.check_active()
        assert checks.checked_loads > 50
        assert sum(l.loss_events for l in topo.links) > 0

    def test_a_compaction_keeps_the_loads(self):
        sim, fabric, topo, rng = _leaf_spine_fabric(IdealMaxMinTransport(), 5)
        checks = ChurnChecks(fabric)
        hosts = topo.hosts()
        for n in range(80):
            fabric.start_flow(hosts[n % 12], hosts[12 + n % 12], 1e9, FlowKind.DATA)
        for n in range(1300):
            sim.call_at(
                0.0005 * n, fabric.start_flow, hosts[n % 24], hosts[(n + 7) % 24], 2e4,
                FlowKind.DATA,
            )
        sim.run(until=0.8)
        table = fabric.incidence.built_table
        assert table.compactions > 0
        assert checks.checked_loads > 500
        checks.check_active()


# -- change-marked solves ----------------------------------------------------------------


def _cold_full_rates(table):
    """A full solve over the table's current inputs, as the filler's cold
    start makes it (the ideal transport: no caps)."""
    n = table.num_rows
    w = table.priority_weight[:n] * table.multiplicity[:n]
    has_path = table.live[:n] & (table.row_stop[:n] > table.row_start[:n])
    cap = np.where(has_path, table.app_limit[:n], 0.0)
    pairs = table.pair_count
    rate, _rounds = _waterfill_kernel(
        table.pair_flow[:pairs], table.pair_link[:pairs], w, np.maximum(cap, 0.0),
        table.link_capacities(),
    )
    return rate


class TestIdealAtScale:
    @pytest.mark.parametrize("seed", range(2))
    def test_rates_are_a_full_solves_after_every_recompute(self, seed, incremental_loads):
        # Above AUTO_NUMPY_MIN_FLOWS the ideal transport solves incrementally.
        sim, fabric, topo, rng = _leaf_spine_fabric(
            IdealMaxMinTransport(), seed, leaves=16, hosts_per_leaf=4
        )
        checks = ChurnChecks(fabric)
        _churn(sim, fabric, topo, rng, checks, 260, steps=60, fail_at=30, local=True)
        checks.check_active()
        assert checks.checked_rates > 60
        assert fabric.incidence.delta.solves_incremental > 30


class TestChangeMarkedSolves:
    @pytest.mark.parametrize("seed", range(4))
    def test_weight_and_capacity_writes_reach_the_solve(self, seed):
        # Mostly rack-local flows, so a change dirties a small component.
        sim, fabric, topo, rng = _leaf_spine_fabric(
            IdealMaxMinTransport(), seed, leaves=16, hosts_per_leaf=4
        )
        racks = {}
        for host in topo.hosts():
            racks.setdefault(host.attrs["rack"], []).append(host)
        racks = list(racks.values())
        with fabric.churn():
            for n in range(240):
                rack = racks[int(rng.integers(len(racks)))]
                other = racks[int(rng.integers(len(racks)))] if n == 0 else rack
                i, j = rng.choice(len(rack), size=2, replace=False)
                fabric.start_flow(rack[int(i)], other[int(j)], 1e12, FlowKind.DATA)
        filler = fabric.incidence.delta
        table = fabric.incidence.built_table
        full_before = filler.solves_full
        for step in range(40):
            flows = fabric.active_flows
            kind = step % 4
            if kind == 0:
                flows[int(rng.integers(len(flows)))].priority_weight = float(
                    rng.choice([0.5, 2.0, 3.0])
                )
            elif kind == 1:
                link = flows[int(rng.integers(len(flows)))].path[-1]
                fabric.set_link_capacity(link, float(rng.choice([20, 100, 300])) * MBPS)
            elif kind == 2:
                # An SLA-style boost straight on the link.
                flows[int(rng.integers(len(flows)))].path[0].capacity_bps *= 1.5
            else:
                for flow in flows[::50]:
                    flow.priority_weight = 1.0
            rates = filler.solve()
            assert rates.rates.tobytes() == _cold_full_rates(table).tobytes()
            fabric.set_rates(flows, rates, rates)
        # set_link_capacity solves through the transport; the solve here then
        # has nothing left to do and hands back what that one left.
        assert filler.solves_full == full_before
        assert filler.solves_incremental >= 20

    def test_an_arrival_with_a_non_positive_weight_raises(self):
        sim, fabric, topo, rng = _leaf_spine_fabric(
            IdealMaxMinTransport(), 0, leaves=16, hosts_per_leaf=4
        )
        hosts = topo.hosts()
        with fabric.churn():
            for n in range(240):
                rack = 4 * (n % 16)
                fabric.start_flow(hosts[rack], hosts[rack + 1 + n % 3], 1e12, FlowKind.DATA)
        filler = fabric.incidence.delta
        flow = fabric.start_flow(hosts[0], hosts[3], 1e12, FlowKind.DATA)
        assert filler.solves_incremental == 1
        with fabric.churn():
            # The flow joins the table with weight 0, set while unbound.
            late = fabric.start_flow(hosts[4], hosts[7], 1e12, FlowKind.DATA)
            fabric.incidence.remove_flow(late)
            late.priority_weight = 0.0
            fabric.incidence.add_flow(late)
            with pytest.raises(ValueError, match="non-positive weight"):
                filler.solve()
            late.priority_weight = 1.0
        assert flow.current_rate_bps > 0.0 and late.current_rate_bps > 0.0
