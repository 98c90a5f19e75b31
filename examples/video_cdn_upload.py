#!/usr/bin/env python3
"""Video CDN scenario: YouTube-like uploads with and without control flows.

Reproduces the workload of the paper's Section X-A1 (Figures 7-12) at a
configurable scale and prints, for both scheme variants:

* the average instantaneous throughput over simulated time,
* the content upload time CDF at a few percentiles, and
* the AFCT-versus-file-size table.

Run it with::

    python examples/video_cdn_upload.py [--with-control/--no-control]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.experiments import paper_scenario, run_comparison
from repro.experiments.figures import figure07, figure08, figure09, figure10, figure11, figure12

MB = 1024.0 * 1024.0


def print_figure_table(figure) -> None:
    print(f"--- {figure.figure_id}: {figure.title}")
    print(figure.as_table())
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sim-time", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=7)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--with-control", dest="control", action="store_true", default=True,
                       help="include the HTTP control flows (Figures 7-9)")
    group.add_argument("--no-control", dest="control", action="store_false",
                       help="video flows only (Figures 10-12)")
    args = parser.parse_args()

    if args.control:
        spec = paper_scenario("video", args.sim_time, args.seed)
        throughput_fig, cdf_fig, afct_fig = figure07, figure08, figure09
    else:
        spec = paper_scenario("video-nocontrol", args.sim_time, args.seed)
        throughput_fig, cdf_fig, afct_fig = figure10, figure11, figure12

    tree = spec.topology_params
    servers = tree["num_agg"] * tree["racks_per_agg"] * tree["hosts_per_rack"]
    print(f"Scenario: {spec.name} — X = {tree['base_bandwidth_bps'] / 1e6:.0f} Mb/s, "
          f"K = {tree['bandwidth_factor']:g}, "
          f"{servers} block servers, {tree['num_clients']} clients")
    comparison = run_comparison(spec)

    print_figure_table(throughput_fig(comparison=comparison))
    print_figure_table(afct_fig(comparison=comparison))

    cdf = cdf_fig(comparison=comparison)
    print(f"--- {cdf.figure_id}: {cdf.title}")
    print("scheme       p50 FCT   p90 FCT   p99 FCT   (seconds)")
    for result in (comparison.baseline, comparison.candidate):
        fcts = result.fcts()
        print(f"{result.scheme:12s}{np.percentile(fcts, 50):>8.2f}"
              f"{np.percentile(fcts, 90):>10.2f}{np.percentile(fcts, 99):>10.2f}")
    print()

    print(f"SCDA upload times are {100 * comparison.fct_reduction_fraction():.0f}% lower on average; "
          f"its FCT CDF dominates RandTCP's over "
          f"{100 * comparison.cdf_dominance():.0f}% of the FCT range.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
