"""Replication-layer benchmark: ensemble size vs wall clock and CI width.

Runs the Pareto/Poisson comparison as an N-seed ensemble for N ∈ {1, 4, 8}
through the serial executor, recording the wall clock and the 95 % CI
half-width of the AFCT speedup at each N — the cost/precision trade-off the
replication layer exists to navigate.  Replicate jobs are independent (one
stack each), so serial wall clock grows near-linearly in the number of newly
computed replicates; the recorded numbers double as the regression baseline
for that claim.

Because replicate seeds derive from replicate identity, the N=4 ensemble is
a strict prefix of the N=8 ensemble: sharing one result store across the
sweep makes the larger ensembles recompute only their new replicates, which
the benchmark asserts via the executor report's cache counters.
"""

import time

import pytest

from bench_utils import save_result


@pytest.mark.benchmark(group="replication scaling")
def test_bench_replication_fanout_and_ci_width(benchmark, results_dir, tmp_path):
    from repro.exec import plan_replications, run_jobs
    from repro.exec.replication import ensemble_from_store
    from repro.exec.store import ResultStore
    from repro.experiments.spec import ScenarioSpec

    spec = ScenarioSpec.pareto_poisson(
        sim_time_s=2.0, seed=2013, arrival_rate_per_s=40.0
    )
    store = ResultStore(tmp_path / "replication.jsonl")
    seeds_axis = (1, 4, 8)

    def run_all():
        points = {}
        for seeds in seeds_axis:
            jobs = plan_replications(spec, seeds=seeds)
            start = time.perf_counter()
            report = run_jobs(jobs, executor="serial", store=store)
            wall = time.perf_counter() - start
            ensemble = ensemble_from_store(store)
            speedup = ensemble.speedup_stats()
            points[seeds] = {
                "wall_clock_s": wall,
                "jobs": len(jobs),
                "computed": report.computed,
                "cached": report.cached,
                "speedup_mean": speedup.mean,
                "speedup_ci_half_width": speedup.half_width,
                "speedup_ci": [speedup.ci_lower, speedup.ci_upper],
            }
        return points

    points = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Ensemble-prefix caching: N=4 reuses N=1's replicate 0, N=8 reuses all
    # of N=4 — only the new replicates are ever computed.
    assert points[1]["computed"] == 2 and points[1]["cached"] == 0
    assert points[4]["computed"] == 6 and points[4]["cached"] == 2
    assert points[8]["computed"] == 8 and points[8]["cached"] == 8

    # The candidate wins at every ensemble size, and N>1 carries a real CI.
    for seeds in seeds_axis:
        assert points[seeds]["speedup_mean"] > 1.0
    assert points[1]["speedup_ci_half_width"] == 0.0
    assert points[8]["speedup_ci_half_width"] >= 0.0

    save_result(
        results_dir,
        "replication_scaling",
        {
            "scenario": "pareto-poisson (sim_time=2s, rate=40/s)",
            "executor": "serial",
            "points": {str(seeds): points[seeds] for seeds in seeds_axis},
        },
    )
