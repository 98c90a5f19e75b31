"""Sensitivity of SCDA to the control interval τ.

The RM/RA computation runs every τ; the paper suggests setting τ to the
average (or maximum) RTT of a block server's flows.  This sweep checks that
SCDA's advantage over RandTCP is robust for τ between 5 ms and 100 ms, and
records how the mean FCT degrades as the control loop slows down.
"""

import pytest

from bench_utils import save_result, scenario_pareto_poisson


@pytest.mark.benchmark(group="tau sweep")
def test_bench_control_interval_sweep(benchmark, results_dir):
    from repro.baselines.schemes import RAND_TCP, SCDA_SCHEME
    from repro.exec import ExperimentJob, run_jobs

    base = scenario_pareto_poisson().with_sim_time(6.0)
    taus = (0.005, 0.010, 0.050, 0.100)

    # Planned up front as serialisable jobs (candidate per τ, baseline once),
    # then run on the serial backend — same numbers on every backend.
    jobs = {
        tau: ExperimentJob(
            spec=base.with_overrides(control_interval_s=tau), scheme=SCDA_SCHEME
        )
        for tau in taus
    }
    jobs["randtcp"] = ExperimentJob(spec=base, scheme=RAND_TCP)

    def sweep():
        report = run_jobs(list(jobs.values()), executor="serial")
        return {
            label: report.result_for(job).mean_fct_s() for label, job in jobs.items()
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_result(
        results_dir,
        "tau_sweep",
        {"mean_fct_s": {str(k): v for k, v in results.items()}},
    )

    baseline_fct = results["randtcp"]
    for tau in taus:
        # SCDA keeps a clear advantage over RandTCP across the whole sweep.
        assert results[tau] < baseline_fct, f"tau={tau}: {results[tau]} vs {baseline_fct}"
    # A faster control loop should not be (much) worse than a slow one.
    assert results[0.005] <= results[0.100] * 1.25
