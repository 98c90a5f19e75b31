"""Execution-layer benchmark: dispatch overhead across backends and batches.

Sweeps the job count (6 / 16 / 32) over serial and the process backend, and
sweeps the chunk size on the process backend.  Every process batch forks its
workers from one preloaded forkserver and shuts them down at its end; the
first process batch at each job count starts that server (it is stopped just
before), and the next one finds it running.  Asserts the determinism contract
that makes any of the parallel numbers publishable (every backend, batch and
chunking returns bit-identical canonical results) and — on machines with more
than one usable core — that the process backend beats serial at 16+ jobs.

On a single-core box the parallel backends cannot beat serial on CPU-bound
jobs (there is nothing to run them on); the recorded numbers then measure
pure dispatch overhead.  ``available_cpus`` is recorded so readers can tell
which regime a results file came from.
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


def _stop_forkserver():
    """Stop this interpreter's forkserver; the next process batch starts one."""
    from multiprocessing import forkserver

    forkserver._forkserver._stop()


@pytest.mark.benchmark(group="executor scaling")
def test_bench_executor_backends_scale_and_agree(benchmark, results_dir):
    from repro.exec import run_jobs

    def run_all():
        sweep = {}
        outputs = {}
        for n in (6, 16, 32):
            jobs = _jobs_of(n)
            point = {}

            start = time.perf_counter()
            report = run_jobs(jobs, executor="serial")
            point["serial_s"] = time.perf_counter() - start
            outputs[f"serial-{n}"] = _canonical(report)

            _stop_forkserver()
            start = time.perf_counter()
            report = run_jobs(jobs, executor="process", max_workers=4)
            point["process_first_s"] = time.perf_counter() - start
            outputs[f"first-{n}"] = _canonical(report)

            start = time.perf_counter()
            report = run_jobs(jobs, executor="process", max_workers=4)
            point["process_s"] = time.perf_counter() - start
            outputs[f"later-{n}"] = _canonical(report)

            point["first_batch_speedup_vs_serial"] = (
                point["serial_s"] / point["process_first_s"]
            )
            point["process_speedup_vs_serial"] = (
                point["serial_s"] / point["process_s"]
            )
            sweep[str(n)] = point

        # Chunk-size sweep: larger chunks amortise per-dispatch IPC at the
        # cost of scheduling granularity.
        batch_sweep = {}
        jobs16 = _jobs_of(16)
        for batch_size in (1, 2, 4):
            start = time.perf_counter()
            report = run_jobs(jobs16, executor="process", max_workers=4,
                              batch_size=batch_size)
            batch_sweep[str(batch_size)] = time.perf_counter() - start
            outputs[f"later-16-b{batch_size}"] = _canonical(report)
        return sweep, batch_sweep, outputs

    sweep, batch_sweep, outputs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result(
        results_dir,
        "executor_scaling",
        {
            "available_cpus": AVAILABLE_CPUS,
            "jobs_sweep": sweep,
            "process_speedup_vs_serial": sweep["32"]["process_speedup_vs_serial"],
            "process_first_batch_speedup_vs_serial": (
                sweep["32"]["first_batch_speedup_vs_serial"]
            ),
            "batch_sweep_16_jobs_wall_clock_s": batch_sweep,
        },
    )

    # The determinism contract: any backend, any batch, any chunking — same
    # bits.
    for n in (6, 16, 32):
        assert outputs[f"serial-{n}"] == outputs[f"first-{n}"] == outputs[f"later-{n}"]
    for batch_size in (1, 2, 4):
        assert outputs[f"later-16-b{batch_size}"] == outputs["serial-16"]

    # With real cores available, the process backend must beat serial once
    # there is enough work to amortise what dispatch overhead remains.
    if AVAILABLE_CPUS >= 2:
        for n in (16, 32):
            assert sweep[str(n)]["process_speedup_vs_serial"] > 1.0, sweep
