#!/usr/bin/env python3
"""Load sweep: does RandTCP ever catch up, and what does SCDA's control plane cost?

An extension of the paper's evaluation: sweep the offered load of the
Pareto/Poisson scenario, plot mean FCT for both schemes as an ASCII chart,
and report the estimated SCDA control-plane overhead at each load (RM/RA
reports every τ plus the per-request protocol messages of Section VIII).

Run it with::

    python examples/load_sweep_analysis.py [--rates 15 40 80]
    python examples/load_sweep_analysis.py --executor process --jobs 4 \
        --store /tmp/load_sweep.jsonl   # parallel + resumable
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.ascii_plot import ascii_line_plot
from repro.core.overhead import estimate_control_overhead
from repro.experiments.sweeps import sweep_offered_load
from repro.network.tree import TreeTopologyConfig, build_tree_topology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", type=float, nargs="+", default=[15.0, 40.0, 80.0],
                        help="arrival rates (flows/s) to sweep")
    parser.add_argument("--sim-time", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--executor", default="serial",
                        help="execution backend: serial, process or cluster")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count for pooled executors")
    parser.add_argument("--store", default=None,
                        help="JSONL result store enabling resume across runs")
    args = parser.parse_args()

    print(f"Sweeping offered load: {args.rates} flows/s "
          f"({args.sim_time:.0f}s of workload per point, both schemes per point, "
          f"executor={args.executor})")
    sweep = sweep_offered_load(
        sorted(args.rates), sim_time=args.sim_time, seed=args.seed,
        executor=args.executor, max_workers=args.jobs, store=args.store,
    )

    print()
    print(sweep.as_table())
    print()
    plot = ascii_line_plot(
        {
            "RandTCP": (sweep.parameters(), [p.baseline_mean_fct_s for p in sweep.points]),
            "SCDA": (sweep.parameters(), [p.candidate_mean_fct_s for p in sweep.points]),
        },
        width=60,
        height=14,
        x_label="arrival rate (flows/s)",
        y_label="mean FCT (s)",
        title="Mean FCT vs offered load",
    )
    print(plot)

    crossovers = sweep.crossover_points()
    print()
    if crossovers:
        print(f"RandTCP catches up at: {crossovers}")
    else:
        print("No crossover: SCDA's mean FCT stays below RandTCP's at every load level "
              f"(speedup {min(sweep.speedups()):.1f}x – {max(sweep.speedups()):.1f}x).")

    topology = build_tree_topology(TreeTopologyConfig())
    print()
    print("Estimated SCDA control-plane overhead (RM/RA reports every 10 ms, "
          "delta-encoded, plus request protocol messages):")
    for rate in sorted(args.rates):
        report = estimate_control_overhead(topology, 0.010, request_rate_per_s=rate)
        fraction = report.overhead_fraction_of_capacity(topology)
        print(f"  {rate:6.0f} flows/s -> {report.control_bytes_per_second_delta / 1e3:8.1f} KB/s "
              f"of control traffic ({100 * fraction:.4f}% of fabric capacity)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
