"""End-to-end scenario throughput: simulated seconds per wall-clock second.

Two complementary measurements, both recorded to
``benchmarks/results/scenario_throughput.json``:

* ``test_bench_scenario_throughput`` times full experiment runs on the
  paper's scaled-down figure scenarios (``run_scheme`` already measures the
  event loop alone, excluding workload generation and analysis) and records
  how many simulated seconds each scheme advances per wall second.
* ``test_bench_fat_tree_100k_slice`` drives the headline scale target — 100k
  concurrent flows on the k=32 fat tree — through a churn slice, times the
  water-filler's own solves and bounds the time per incremental solve,
  rescaled to the reference CPU speed, which is the point of the delta
  water-filler.  The CI smoke run (``--benchmark-disable``) caps the slice
  at 20k flows.
"""

import time

import pytest

from bench_utils import (
    save_result,
    scenario_pareto_poisson,
    scenario_video_with_control,
    speed_sampler,
)

#: Bound on the water-filler's time per incremental solve in the fat-tree
#: slice, in microseconds at the reference CPU speed (``perfbench/speed.py``),
#: by slice size: 1.2 times the median of five readings of the code before
#: the scalar kernel and the change-marked inputs (1268.0 and 4053.3 us; see
#: docs/PERFORMANCE.md).
SOLVER_US_PER_SOLVE_BOUND = {20_000: 1520.0, 100_000: 4860.0}

_payload = {}


def _record(results_dir, key, value):
    """Merge one section into scenario_throughput.json (tests run in file order)."""
    _payload[key] = value
    save_result(results_dir, "scenario_throughput", _payload)


def test_bench_scenario_throughput(results_dir):
    """Figure-scenario runs: simulated seconds advanced per wall second."""
    from repro.baselines.schemes import RAND_TCP, SCDA_SCHEME
    from repro.experiments.runner import run_scheme

    cases = [
        ("pareto_poisson/SCDA", scenario_pareto_poisson(), SCDA_SCHEME),
        ("pareto_poisson/RandTCP", scenario_pareto_poisson(), RAND_TCP),
        ("video_control/SCDA", scenario_video_with_control(), SCDA_SCHEME),
    ]
    section = {}
    for label, scenario, scheme in cases:
        result = run_scheme(scenario, scheme)
        wall = result.wall_clock_s
        section[label] = {
            "sim_time_s": scenario.total_time_s,
            "wall_clock_s": wall,
            "sim_seconds_per_wall_second": scenario.total_time_s / wall,
            "events_per_wall_second": result.extras["events_processed"] / wall,
            "kernel_recomputes": result.extras["kernel_recomputes"],
            "kernel_solves_incremental": result.extras.get(
                "kernel_solves_incremental", 0.0
            ),
        }
    _record(results_dir, "figure_scenarios", section)
    for label, row in section.items():
        assert row["sim_seconds_per_wall_second"] > 0.0, (label, row)


def test_bench_fat_tree_100k_slice(results_dir, request):
    """100k flows on the k=32 fat tree: an incremental solve stays cheap.

    The slice holds F long-lived rack-local flows in steady state while a few
    hundred short flows arrive and complete, which is the sparse-churn regime
    the incremental solver targets.  The initial full solve (the cold start
    every backend pays once) runs before any measurement starts.  Every
    solve of the two churn windows is timed, without a profiler, and the
    total is rescaled to the reference CPU speed over the windows, so the
    bound on the time per incremental solve holds whatever else gets faster
    or however fast the machine runs.
    """
    from repro.network.fabric import FabricSimulator
    from repro.network.flow import FlowKind
    from repro.network.transport.ideal import IdealMaxMinTransport
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams
    from test_bench_kernel_microbench import _fat_tree

    smoke = request.config.getoption("benchmark_disable", default=False)
    num_flows = 20_000 if smoke else 100_000
    churn_arrivals = 200
    late_arrivals = 25

    topology = _fat_tree()
    sim = Simulator()
    fabric = FabricSimulator(sim, topology, IdealMaxMinTransport())

    link_of = {(l.src.node_id, l.dst.node_id): l for l in topology.links}
    racks = {}
    for host in topology.hosts():
        racks.setdefault(str(host.attrs["rack"]), []).append(host)
    rack_list = sorted(racks.items())
    rng = RandomStreams(num_flows).stream("slice")

    def start_rack_local(size_bytes):
        rack_key, hosts = rack_list[int(rng.integers(0, len(rack_list)))]
        i = int(rng.integers(0, len(hosts)))
        j = int(rng.integers(0, len(hosts) - 1))
        if j >= i:
            j += 1
        src, dst = hosts[i], hosts[j]
        edge_id = f"edge-{rack_key}"
        path = [link_of[(src.node_id, edge_id)], link_of[(edge_id, dst.node_id)]]
        fabric.start_flow(src, dst, size_bytes, FlowKind.DATA, path=path)

    # Steady-state population: long-lived elephants that stay active for the
    # whole slice, admitted under one coalesced recompute (the cold start).
    with fabric.churn():
        for _ in range(num_flows):
            start_rack_local(1e12)
    assert fabric.recomputes == 1
    assert fabric.active_flow_count == num_flows

    # The water-filler's own time: every solve of the two churn windows.
    delta = fabric.incidence.delta
    solve = delta.solve
    solve_s = []

    def timed_solve(*args, **kwargs):
        started = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            solve_s.append(time.perf_counter() - started)

    delta.solve = timed_solve
    incremental_before = delta.solves_incremental
    with speed_sampler() as sampler:
        # -- churn window: the throughput number ------------------------------
        for n in range(churn_arrivals):
            size = float(rng.uniform(1e5, 1e6))
            sim.call_at(0.001 + 0.001 * n, start_rack_local, size)
        window_s = 0.45
        wall_start = time.perf_counter()
        sim.run(until=window_s)
        wall = time.perf_counter() - wall_start

        # -- a second, shorter churn window ------------------------------------
        for n in range(late_arrivals):
            size = float(rng.uniform(1e5, 1e6))
            sim.call_at(window_s + 0.001 * (n + 1), start_rack_local, size)
        sim.run(until=window_s + 0.05)
        timed_end = time.perf_counter()
    del delta.solve
    incremental = delta.solves_incremental - incremental_before
    solver_ref_s = sampler.rescale(sum(solve_s), wall_start, timed_end)
    solver_us = solver_ref_s / max(incremental, 1) * 1e6

    # Drain: every short flow must complete; only the elephants survive.
    sim.run(until=window_s + 0.8)
    assert fabric.active_flow_count == num_flows

    section = {
        "num_flows": num_flows,
        "churn_arrivals": churn_arrivals + late_arrivals,
        "window_sim_s": window_s,
        "window_wall_s": wall,
        "sim_seconds_per_wall_second": window_s / wall,
        "solver_calls": len(solve_s),
        "solver_wall_s": sum(solve_s),
        "solver_ref_us_per_incremental_solve": solver_us,
        "solver_ref_us_bound": SOLVER_US_PER_SOLVE_BOUND[num_flows],
        "recomputes": fabric.recomputes,
        "recomputes_coalesced": fabric.recomputes_coalesced,
        "solves_incremental": float(delta.solves_incremental),
        "solves_full": float(delta.solves_full),
        "fallback_large_region": float(delta.fallback_large_region),
        "dirty_rows_max": float(delta.dirty_rows_max),
    }
    _record(results_dir, "fat_tree_slice", section)

    assert delta.solves_incremental > 0, section
    assert delta.solves_full == 1, section
    assert delta.fallback_large_region == 0, section
    assert solver_us <= SOLVER_US_PER_SOLVE_BOUND[num_flows], section


def test_bench_million_session_aggregate(results_dir, request):
    """10^6 CDN video sessions on the k=32 fat tree via aggregate flows.

    The headline of the aggregate-flow subsystem: a million concurrent video
    sessions cost ``sessions / multiplicity`` fluid flow objects, so the
    scenario finishes in seconds of wall clock instead of the better part of
    an hour.  Two measurements:

    * the full million-session population (aggregate representation only),
      recording ``sim_seconds_per_wall_second`` and
      ``sessions_per_flow_object``;
    * a head-to-head at the largest session count both representations can
      afford: the *same* population run once as aggregates and once expanded
      to one discrete flow per session on the same path.  By the
      aggregate/discrete equivalence (tests/network/test_fluid_incremental.py)
      both legs produce identical fluid dynamics and identical simulated
      time, so the wall-clock ratio isolates the representation cost.  Both
      modes assert only that the aggregate leg is faster: the columnar fabric
      advances every flow with array operations, so a discrete flow no longer
      costs per-flow Python on every event and the ratio is recorded rather
      than held to a floor.

    The CI smoke run (``--benchmark-disable``) scales both measurements down.
    """
    import time as _time

    from repro.network.fabric import FabricSimulator
    from repro.network.flow import FlowKind
    from repro.network.transport.ideal import IdealMaxMinTransport
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams
    from test_bench_kernel_microbench import _fat_tree

    smoke = request.config.getoption("benchmark_disable", default=False)
    multiplicity = 500
    headline_sessions = 50_000 if smoke else 1_000_000
    common_sessions = 5_000 if smoke else 40_000
    session_size_bytes = 4e6  # one ~4 MB video per session

    topology = _fat_tree()
    link_of = {(l.src.node_id, l.dst.node_id): l for l in topology.links}
    racks = {}
    for host in topology.hosts():
        racks.setdefault(str(host.attrs["rack"]), []).append(host)
    rack_list = sorted(racks.items())

    def draw_population(num_objects, seed):
        """Rack-local (src, dst, path) triples, one per aggregate object."""
        rng = RandomStreams(seed).stream("population")
        population = []
        for _ in range(num_objects):
            rack_key, hosts = rack_list[int(rng.integers(0, len(rack_list)))]
            i = int(rng.integers(0, len(hosts)))
            j = int(rng.integers(0, len(hosts) - 1))
            if j >= i:
                j += 1
            src, dst = hosts[i], hosts[j]
            edge_id = f"edge-{rack_key}"
            path = [
                link_of[(src.node_id, edge_id)],
                link_of[(edge_id, dst.node_id)],
            ]
            population.append((src, dst, path))
        return population

    def run_population(population, expand):
        """Admit the population in one churn batch, drain, time the whole run.

        ``expand=False`` starts one flow object of ``multiplicity`` sessions
        per population entry; ``expand=True`` starts ``multiplicity`` discrete
        clones on the same path — the same sessions, represented one per flow.
        """
        sim = Simulator()
        fabric = FabricSimulator(sim, topology, IdealMaxMinTransport())
        wall_start = _time.perf_counter()
        with fabric.churn():
            for src, dst, path in population:
                for _ in range(multiplicity if expand else 1):
                    fabric.start_flow(
                        src,
                        dst,
                        session_size_bytes,
                        FlowKind.VIDEO,
                        path=path,
                        multiplicity=1 if expand else multiplicity,
                    )
        fabric.drain()
        wall = _time.perf_counter() - wall_start
        assert fabric.active_flow_count == 0
        return wall, sim.now

    # -- the million-session headline (aggregate representation only) ---------
    num_objects = headline_sessions // multiplicity
    headline_wall, headline_sim_s = run_population(
        draw_population(num_objects, seed=1), expand=False
    )

    # -- head-to-head at the largest common size ------------------------------
    common = draw_population(common_sessions // multiplicity, seed=2)
    agg_wall, agg_sim_s = run_population(common, expand=False)
    discrete_wall, discrete_sim_s = run_population(common, expand=True)
    advantage = discrete_wall / agg_wall

    section = {
        "headline_sessions": headline_sessions,
        "headline_flow_objects": num_objects,
        "sessions_per_flow_object": headline_sessions / num_objects,
        "headline_wall_s": headline_wall,
        "headline_sim_s": headline_sim_s,
        "sim_seconds_per_wall_second": headline_sim_s / headline_wall,
        "common_sessions": common_sessions,
        "common_sim_s": agg_sim_s,
        "aggregate_wall_s": agg_wall,
        "discrete_wall_s": discrete_wall,
        "aggregate_wall_advantage": advantage,
    }
    _record(results_dir, "million_session_aggregate", section)

    # Identical fluid dynamics: both representations simulate the same span.
    assert agg_sim_s == pytest.approx(discrete_sim_s, rel=1e-6), section
    assert section["sessions_per_flow_object"] == multiplicity
    assert advantage > 1.0, section
