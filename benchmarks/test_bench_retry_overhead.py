"""Fault-tolerance overhead benchmark: retries disabled vs enabled, no faults.

The retry machinery (attempt bookkeeping, the deterministic backoff state,
the retry heap) sits on the hot path of every job even when nothing fails.
This benchmark runs the same serial job list with retries disabled and with
an aggressive policy enabled, on a fault-free ("happy") path, in alternating
pairs, each run rescaled to the reference CPU speed, and records the relative
overhead as the median of the per-pair time ratios — which must stay
negligible, since almost every real run is the happy path.
"""

import statistics
import time

import pytest

from bench_utils import save_result, scenario_pareto_poisson, speed_sampler

#: Alternating (retries off, retries on) pairs timed; their first sides
#: alternate too.  A run of the 6 s comparison takes about 1 ref-s, and the
#: two runs of one pair were seen up to 1.7x apart in a full benchmark run,
#: so the gate reads the median of many per-pair ratios.
PAIRS = 21


@pytest.mark.benchmark(group="retry overhead")
def test_bench_retry_overhead_on_the_happy_path(benchmark, results_dir):
    from repro.exec import RetryPolicy, run_jobs
    from repro.exec.planner import plan_comparison

    jobs = plan_comparison(scenario_pareto_poisson().with_sim_time(6.0))
    policy = RetryPolicy(max_attempts=5, timeout_s=None)
    sides = (("retry_disabled", None), ("retry_enabled", policy))

    def run_pairs():
        # Alternate the two configurations, each pair in the other order
        # than the last, and rescale every run to the reference CPU speed,
        # so a slow spell of the machine hits both labels alike and the
        # medians compare the work done.
        timings = {label: [] for label, _active in sides}
        outputs = {}
        with speed_sampler() as sampler:
            for pair in range(PAIRS):
                for label, active in sides if pair % 2 == 0 else sides[::-1]:
                    start = time.perf_counter()
                    report = run_jobs(jobs, executor="serial", policy=active)
                    end = time.perf_counter()
                    timings[label].append(sampler.rescale(end - start, start, end))
                    outputs[label] = {
                        key: result.canonical_dict() for key, result in report.results.items()
                    }
                    assert not report.failures
        return timings, outputs

    run_jobs(jobs, executor="serial")  # warm-up: registry bootstrap, numpy caches
    timings, outputs = benchmark.pedantic(run_pairs, rounds=1, iterations=1)

    medians = {label: statistics.median(values) for label, values in timings.items()}
    ratios = [
        enabled / disabled
        for disabled, enabled in zip(timings["retry_disabled"], timings["retry_enabled"])
    ]
    overhead = statistics.median(ratios) - 1.0
    save_result(
        results_dir,
        "retry_overhead",
        {
            "jobs": len(jobs),
            "pairs": PAIRS,
            "ref_wall_clock_s": timings,
            "median_ref_wall_clock_s": medians,
            "pair_ratios": ratios,
            "retry_overhead_fraction": overhead,
            "target_overhead_fraction": 0.02,
        },
    )

    # The policy must be invisible on the happy path: identical bytes...
    assert outputs["retry_disabled"] == outputs["retry_enabled"]
    # ...and near-identical time.  The target is <2%; the assertion bound is
    # looser because the median ratio of rescaled pairs still moves by a few
    # percent on a shared machine — the recorded JSON carries the number.
    assert overhead < 0.15, f"retry machinery cost {overhead:.1%} on the happy path"
