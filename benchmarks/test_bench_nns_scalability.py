"""Metadata-plane scalability: one NNS versus several NNS behind the FES.

The paper's first design feature is removing the single-name-node bottleneck
of GFS/HDFS by hashing requests over multiple NNS through a light-weight FES.
This benchmark measures (a) how evenly the FES spreads a large request
population and (b) the per-NNS metadata load with 1, 2, 4 and 8 name nodes.
"""

import pytest

from bench_utils import save_result, scenario_pareto_poisson


@pytest.mark.benchmark(group="nns scalability")
def test_bench_fes_spreads_load_across_name_nodes(benchmark, results_dir):
    from repro.cluster.front_end import FrontEndServer

    keys = [f"client-{i}" for i in range(20_000)]

    def route_all():
        loads = {}
        for n in (1, 2, 4, 8):
            fes = FrontEndServer([f"nns-{i}" for i in range(n)])
            loads[n] = fes.load_per_name_node(keys)
        return loads

    loads = benchmark(route_all)
    imbalance = {
        n: max(per_nns.values()) / (len(keys) / n) for n, per_nns in loads.items()
    }
    save_result(results_dir, "nns_scalability_hashing", {"imbalance": imbalance})
    # With 8 NNS, the most loaded one should see < 15 % more than its fair share.
    assert imbalance[8] < 1.15
    # And the per-NNS load with 8 NNS is ~1/8 of the single-NNS load.
    assert max(loads[8].values()) < 0.2 * max(loads[1].values())


@pytest.mark.benchmark(group="nns scalability")
def test_bench_cluster_with_multiple_name_nodes(benchmark, results_dir):
    """End-to-end: the same workload served by 1 vs 4 name nodes.

    The NNS count is a first-class scenario axis (``num_name_nodes``), so the
    two runs are two serialisable jobs run on the serial backend; the
    per-NNS load comes back in the results' ``extras``, not by reaching into
    live simulator state.
    """
    from repro.baselines.schemes import SCDA_SCHEME
    from repro.exec import ExperimentJob, run_jobs

    scenario = scenario_pareto_poisson().with_sim_time(6.0)
    jobs = {
        n: ExperimentJob(spec=scenario.with_overrides(num_name_nodes=n), scheme=SCDA_SCHEME)
        for n in (1, 4)
    }

    def run_both():
        report = run_jobs(list(jobs.values()), executor="serial")
        return {
            n: {
                "max": report.result_for(job).extras["nns_write_requests_max"],
                "total": report.result_for(job).extras["nns_write_requests_total"],
            }
            for n, job in jobs.items()
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_result(results_dir, "nns_scalability_cluster", {"write_requests": results})

    total_requests = results[1]["total"]
    assert results[4]["total"] == total_requests
    # Spreading over 4 NNS cuts the hottest NNS's load substantially.
    assert results[4]["max"] < 0.6 * results[1]["max"]
