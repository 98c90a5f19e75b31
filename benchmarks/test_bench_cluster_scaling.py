"""Cluster-backend benchmark: throughput on 1 / 2 / 4 localhost workers.

On one machine the cluster backend mostly measures its own HTTP and shard
overhead — real speedup needs real machines — so this benchmark records
jobs/s per worker count plus the dispatch overhead against the in-process
``process`` backend, and asserts the properties that must hold even locally:
every worker count returns bit-identical canonical results, and chunked
dispatch reduces HTTP round-trips.
"""

import os
import time

import pytest

from bench_utils import save_result, scenario_pareto_poisson

AVAILABLE_CPUS = len(os.sched_getaffinity(0))


@pytest.mark.benchmark(group="cluster scaling")
def test_bench_cluster_worker_scaling(benchmark, results_dir, tmp_path):
    from repro.exec import plan_matrix, run_jobs
    from repro.exec.cluster import ClusterExecutor
    from repro.exec.planner import with_arrival_rate
    from repro.service.worker import WorkerServer

    base = scenario_pareto_poisson().with_sim_time(4.0)
    scenarios = [with_arrival_rate(base, rate) for rate in (20.0, 40.0, 60.0)]
    jobs = plan_matrix(scenarios, ["scda", "rand-tcp"])

    def run_all():
        timings = {}
        outputs = {}
        chunk_counts = {}

        start = time.perf_counter()
        report = run_jobs(jobs, executor="process", max_workers=4)
        timings["process-4"] = time.perf_counter() - start
        outputs["process-4"] = {
            key: result.canonical_dict() for key, result in report.results.items()
        }

        for n_workers in (1, 2, 4):
            shard_dir = tmp_path / f"shards-{n_workers}"
            shard_dir.mkdir()
            workers = [
                WorkerServer(port=0, shard_dir=shard_dir).start()
                for _ in range(n_workers)
            ]
            hosts = ",".join(f"{w.host}:{w.port}" for w in workers)
            label = f"cluster-{n_workers}"
            try:
                start = time.perf_counter()
                report = run_jobs(
                    jobs,
                    executor=ClusterExecutor(hosts=hosts),
                    batch_size=2,
                    fallback=False,
                )
                timings[label] = time.perf_counter() - start
                outputs[label] = {
                    key: result.canonical_dict()
                    for key, result in report.results.items()
                }
                chunk_counts[label] = sum(w.stats()["chunks"] for w in workers)
            finally:
                for worker in workers:
                    worker.stop()

        # Batch-size sweep on two workers: the endpoints of the chunking
        # trade-off (one HTTP round-trip per job vs per six jobs).
        batch_sweep = {}
        for batch_size in (1, 6):
            shard_dir = tmp_path / f"shards-b{batch_size}"
            shard_dir.mkdir()
            workers = [
                WorkerServer(port=0, shard_dir=shard_dir).start() for _ in range(2)
            ]
            hosts = ",".join(f"{w.host}:{w.port}" for w in workers)
            try:
                start = time.perf_counter()
                report = run_jobs(
                    jobs,
                    executor=ClusterExecutor(hosts=hosts),
                    batch_size=batch_size,
                    fallback=False,
                )
                batch_sweep[str(batch_size)] = {
                    "wall_clock_s": time.perf_counter() - start,
                    "http_chunks": sum(w.stats()["chunks"] for w in workers),
                }
                outputs[f"cluster-2-b{batch_size}"] = {
                    key: result.canonical_dict()
                    for key, result in report.results.items()
                }
            finally:
                for worker in workers:
                    worker.stop()
        return timings, outputs, chunk_counts, batch_sweep

    timings, outputs, chunk_counts, batch_sweep = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    jobs_per_s = {label: len(jobs) / wall for label, wall in timings.items()}
    save_result(
        results_dir,
        "cluster_scaling",
        {
            "available_cpus": AVAILABLE_CPUS,
            "jobs": len(jobs),
            "wall_clock_s": timings,
            "jobs_per_s": jobs_per_s,
            "http_chunks": chunk_counts,
            "batch_size_sweep": batch_sweep,
            "dispatch_overhead_vs_process": (
                timings["cluster-4"] / timings["process-4"]
            ),
        },
    )

    # The determinism contract holds across the HTTP boundary at any scale
    # and any chunking.
    assert (
        outputs["process-4"]
        == outputs["cluster-1"]
        == outputs["cluster-2"]
        == outputs["cluster-4"]
        == outputs["cluster-2-b1"]
        == outputs["cluster-2-b6"]
    )
    # Chunked dispatch actually amortised round-trips: fewer chunks than jobs.
    assert all(count < len(jobs) for count in chunk_counts.values()), chunk_counts
    # The sweep endpoints bracket it: per-job dispatch pays one round-trip
    # per job, six-job chunks pay strictly fewer.
    assert batch_sweep["1"]["http_chunks"] == len(jobs), batch_sweep
    assert batch_sweep["6"]["http_chunks"] < len(jobs), batch_sweep
