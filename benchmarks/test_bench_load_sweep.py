"""Extension experiment: the SCDA-vs-RandTCP gap as a function of offered load.

The paper evaluates single operating points; this sweep varies the
Pareto/Poisson arrival rate and confirms there is no crossover — SCDA's mean
FCT stays below RandTCP's at light, moderate and heavy load — and records how
the speedup evolves.  It also reports the estimated control-plane overhead at
each load so the gain can be weighed against SCDA's message cost.
"""

import pytest

from bench_utils import save_result


@pytest.mark.benchmark(group="load sweep")
def test_bench_offered_load_sweep(benchmark, results_dir):
    from repro.core.overhead import estimate_control_overhead
    from repro.experiments.sweeps import sweep_offered_load
    from repro.network.tree import TreeTopologyConfig, build_tree_topology

    rates = (15.0, 40.0, 80.0)

    def run_sweep():
        # The sweep is planned into jobs and run on the serial backend; any
        # backend (serial/process/cluster) produces bit-identical points.
        return sweep_offered_load(rates, sim_time=6.0, seed=2013, executor="serial")

    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    topology = build_tree_topology(TreeTopologyConfig())
    overhead = {
        rate: estimate_control_overhead(
            topology, control_interval_s=0.01, request_rate_per_s=rate
        ).overhead_fraction_of_capacity(topology)
        for rate in rates
    }
    save_result(
        results_dir,
        "load_sweep",
        {
            "arrival_rates_per_s": list(rates),
            "executor": "serial",
            "speedups": result.speedups(),
            "scda_mean_fct_s": [p.candidate_mean_fct_s for p in result.points],
            "randtcp_mean_fct_s": [p.baseline_mean_fct_s for p in result.points],
            "control_overhead_fraction": overhead,
        },
    )

    # No crossover anywhere in the sweep, and the gap does not collapse at high load.
    assert result.crossover_points() == []
    assert min(result.speedups()) > 1.5
    # The control plane stays negligible even at the highest load.
    assert max(overhead.values()) < 1e-3
