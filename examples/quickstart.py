#!/usr/bin/env python3
"""Quickstart: compare SCDA against RandTCP on a small cloud datacenter.

This is the 5-minute tour of the library:

1. pick a scenario (topology + workload) from the paper's evaluation,
2. run both schemes on the *same* workload with ``run_comparison``,
3. read off the headline numbers the paper reports — how much lower the
   average content transfer time is and how much higher the average
   instantaneous throughput is under SCDA.

Run it with::

    python examples/quickstart.py [--seed N] [--sim-time SECONDS]
"""

import argparse
import sys
from pathlib import Path

# Allow running straight from a source checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import ScenarioSpec, check_comparison_shape, run_comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="workload random seed")
    parser.add_argument(
        "--sim-time", type=float, default=10.0, help="seconds of workload to generate"
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=40.0, help="flow arrivals per second"
    )
    args = parser.parse_args()

    print("Building the Pareto/Poisson scenario of Section X-B "
          f"(sim_time={args.sim_time:.0f}s, {args.arrival_rate:.0f} flows/s, seed={args.seed})")
    spec = ScenarioSpec.pareto_poisson(
        sim_time_s=args.sim_time, seed=args.seed, arrival_rate_per_s=args.arrival_rate
    )

    print("Running SCDA and RandTCP on the identical workload ...")
    comparison = run_comparison(spec)

    scda, rand = comparison.candidate, comparison.baseline
    print()
    print(f"{'':28s}{'RandTCP':>12s}{'SCDA':>12s}")
    print(f"{'completed flows':28s}{rand.completed_flows:>12d}{scda.completed_flows:>12d}")
    print(f"{'mean FCT (s)':28s}{rand.mean_fct_s():>12.3f}{scda.mean_fct_s():>12.3f}")
    print(
        f"{'median FCT (s)':28s}{rand.fct_statistics().median_s:>12.3f}"
        f"{scda.fct_statistics().median_s:>12.3f}"
    )
    print(
        f"{'p99 FCT (s)':28s}{rand.fct_statistics().p99_s:>12.3f}"
        f"{scda.fct_statistics().p99_s:>12.3f}"
    )
    print(
        f"{'avg inst. thpt (KB/s)':28s}{rand.mean_throughput_kBps():>12.1f}"
        f"{scda.mean_throughput_kBps():>12.1f}"
    )
    print(
        f"{'mean per-flow goodput (KB/s)':28s}{rand.mean_goodput_kBps():>12.1f}"
        f"{scda.mean_goodput_kBps():>12.1f}"
    )
    print()
    print(f"SCDA reduces the mean content transfer time by "
          f"{100 * comparison.fct_reduction_fraction():.0f}% "
          f"(paper reports ≈50%) and raises the mean per-flow goodput by "
          f"{comparison.goodput_gain_fraction() + 1:.1f}x (paper: throughput up to 60% higher; "
          "our flow-level TCP baseline is hit harder by the 120 ms RTT, see EXPERIMENTS.md).")

    shape = check_comparison_shape(comparison)
    print(f"Qualitative shape checks passed: {shape.all_passed}")
    return 0 if shape.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
