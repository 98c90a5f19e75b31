"""Execution-layer benchmark: dispatch overhead across backends and pools.

Sweeps the job count (6 / 16 / 32) over serial, cold process pools
(spawn+import per call) and warm process pools (``pool="keep"``), and sweeps
the chunk size on the warm pool.  Asserts the determinism contract that makes
any of the parallel numbers publishable (every backend/pool returns
bit-identical canonical results) and — on machines with more than one usable
core — that the warm process pool actually beats serial at 16+ jobs.

On a single-core box the parallel backends cannot beat serial on CPU-bound
jobs (there is nothing to run them on); the recorded numbers then measure
pure dispatch overhead, which is exactly what the warm pool exists to
shrink.  ``available_cpus`` is recorded so readers can tell which regime a
results file came from.
"""

import os
import time

import pytest

from bench_utils import save_result, scenario_pareto_poisson

#: Speedup asserts only make sense with real parallelism available.
AVAILABLE_CPUS = len(os.sched_getaffinity(0))


def _jobs_of(n):
    from repro.exec import plan_matrix
    from repro.exec.planner import with_arrival_rate

    base = scenario_pareto_poisson().with_overrides(sim_time_s=2.0)
    rates = [10.0 + 2.0 * i for i in range(n // 2)]
    jobs = plan_matrix([with_arrival_rate(base, rate) for rate in rates],
                       ["scda", "rand-tcp"])
    assert len(jobs) == n
    return jobs


def _canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


@pytest.mark.benchmark(group="executor scaling")
def test_bench_executor_backends_scale_and_agree(benchmark, results_dir):
    from repro.exec import ProcessExecutor, run_jobs

    def run_all():
        sweep = {}
        outputs = {}
        warm = ProcessExecutor(max_workers=4, pool="keep")
        try:
            # Pre-warm so the sweep's warm numbers measure reuse, not the
            # first call's spawn+import cost (which the cold runs measure).
            # Four jobs so the pool reaches its full four-worker size.
            run_jobs(_jobs_of(4), executor=warm)
            warm_stats_before = warm.stats()

            for n in (6, 16, 32):
                jobs = _jobs_of(n)
                point = {}

                start = time.perf_counter()
                report = run_jobs(jobs, executor="serial")
                point["serial_s"] = time.perf_counter() - start
                outputs[f"serial-{n}"] = _canonical(report)

                start = time.perf_counter()
                report = run_jobs(jobs, executor="process", max_workers=4)
                point["process_cold_s"] = time.perf_counter() - start
                outputs[f"cold-{n}"] = _canonical(report)

                start = time.perf_counter()
                report = run_jobs(jobs, executor=warm)
                point["process_warm_s"] = time.perf_counter() - start
                outputs[f"warm-{n}"] = _canonical(report)

                point["cold_speedup_vs_serial"] = (
                    point["serial_s"] / point["process_cold_s"]
                )
                point["process_speedup_vs_serial"] = (
                    point["serial_s"] / point["process_warm_s"]
                )
                point["warm_pool_saving_s"] = (
                    point["process_cold_s"] - point["process_warm_s"]
                )
                sweep[str(n)] = point

            # Chunk-size sweep on the warm pool: larger chunks amortise
            # per-dispatch IPC at the cost of scheduling granularity.
            batch_sweep = {}
            jobs16 = _jobs_of(16)
            for batch_size in (1, 2, 4):
                start = time.perf_counter()
                report = run_jobs(jobs16, executor=warm, batch_size=batch_size)
                batch_sweep[str(batch_size)] = time.perf_counter() - start
                outputs[f"warm-16-b{batch_size}"] = _canonical(report)

            warm_stats_after = warm.stats()
        finally:
            warm.close()
        return sweep, batch_sweep, outputs, warm_stats_before, warm_stats_after

    sweep, batch_sweep, outputs, warm_before, warm_after = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    save_result(
        results_dir,
        "executor_scaling",
        {
            "available_cpus": AVAILABLE_CPUS,
            "jobs_sweep": sweep,
            "process_speedup_vs_serial": sweep["32"]["process_speedup_vs_serial"],
            "process_cold_speedup_vs_serial": sweep["32"]["cold_speedup_vs_serial"],
            "warm_batch_sweep_16_jobs_wall_clock_s": batch_sweep,
            "warm_pool_stats": warm_after,
        },
    )

    # The determinism contract: any backend, any pool lifecycle, any
    # chunking — same bits.
    for n in (6, 16, 32):
        assert outputs[f"serial-{n}"] == outputs[f"cold-{n}"] == outputs[f"warm-{n}"]
    for batch_size in (1, 2, 4):
        assert outputs[f"warm-16-b{batch_size}"] == outputs["serial-16"]

    # The warm pool really was warm: the entire sweep ran on the workers
    # spawned by the pre-warm call — zero additional spawns, zero respawns.
    assert warm_after["spawned"] == warm_before["spawned"]
    assert warm_after["respawned"] == 0
    assert warm_after["reused"] > warm_before["reused"]

    # With real cores available, the warm process pool must beat serial once
    # there is enough work to amortise what dispatch overhead remains.
    if AVAILABLE_CPUS >= 2:
        for n in (16, 32):
            assert sweep[str(n)]["process_speedup_vs_serial"] > 1.0, sweep
