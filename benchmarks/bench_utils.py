"""Shared helpers for the benchmark harness.

Each benchmark regenerates one figure (or ablation) of the paper's evaluation
section on a scaled-down scenario, checks the qualitative shape of the result
(who wins, by roughly what factor) and records the headline numbers to
``benchmarks/results/<name>.json`` so EXPERIMENTS.md can be refreshed from a
benchmark run.

The scenarios are smaller than the paper's (shorter simulated time, scaled
arrival rates) so the whole suite finishes in a few minutes on a laptop.
"""

import json
import sys
from pathlib import Path

# Make the in-repo sources importable even without an installed package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: perfbench's directory, for its CPU-speed sampler (``perfbench/speed.py``)
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Scaled-down per-figure scenario settings (seconds of workload, seed).
FIGURE_SIM_TIME_S = 12.0
FIGURE_SEED = 2013  # the paper's publication year, for flavour


def speed_sampler():
    """A fresh perfbench ``SpeedSampler`` (see ``perfbench/speed.py``).

    Used as a context manager around timed work; ``sampler.rescale(wall,
    start, end)`` turns a wall time between two ``time.perf_counter``
    readings into the time it would have taken at the reference CPU speed,
    so a wall-clock gate compares work rather than how fast the shared
    machine ran at the moment.
    """
    if str(_PERFBENCH) not in sys.path:
        sys.path.insert(0, str(_PERFBENCH))
    from speed import SpeedSampler

    return SpeedSampler()


def save_result(results_dir: Path, name: str, payload: dict) -> None:
    """Persist one benchmark's headline numbers as JSON."""
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float))


def scenario_video_with_control():
    from repro.experiments.spec import paper_scenario

    return paper_scenario("video", FIGURE_SIM_TIME_S, FIGURE_SEED)


def scenario_video_without_control():
    from repro.experiments.spec import paper_scenario

    return paper_scenario("video-nocontrol", FIGURE_SIM_TIME_S, FIGURE_SEED)


def scenario_datacenter(k: float):
    from repro.experiments.spec import paper_scenario

    return paper_scenario(f"datacenter-k{k:g}", FIGURE_SIM_TIME_S, FIGURE_SEED)


def scenario_pareto_poisson():
    from repro.experiments.spec import ScenarioSpec

    return ScenarioSpec.pareto_poisson(
        sim_time_s=FIGURE_SIM_TIME_S, seed=FIGURE_SEED, arrival_rate_per_s=50.0
    )
