"""Experiment harness: scenarios, the runner, and per-figure generators.

* :mod:`~repro.experiments.spec` — the declarative, registry-driven
  :class:`ScenarioSpec` (string-keyed topology/workload plus typed params,
  JSON round-trip for reproducible scenario files), the one scenario type;
  :data:`PAPER_SCENARIOS` builds every scenario of the paper's evaluation
  section from it.
* :mod:`~repro.experiments.runner` — builds a full stack (topology, fabric,
  transport, controller, cluster, workload) for a scheme and runs it;
  :func:`run_scenario` / :func:`run_comparison` run two schemes on the
  identical workload, and :func:`run_job` is the pure job → result function
  the :mod:`repro.exec` executor backends call.
* :mod:`~repro.experiments.figures` — one generator per figure (7-18) that
  returns the plotted series.
* :mod:`~repro.experiments.shapes` — qualitative shape checks (who wins, by
  roughly how much) used by the tests and benchmarks.
"""

from repro.experiments.spec import PAPER_SCENARIOS, ScenarioSpec, as_spec, paper_scenario
from repro.experiments.runner import (
    SchemeStack,
    build_stack,
    resolve_scheme,
    run_job,
    run_scenario,
    run_scheme,
    run_comparison,
)
from repro.experiments.figures import (
    FigureData,
    figure07,
    figure08,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    FIGURE_GENERATORS,
)
from repro.experiments.shapes import ShapeCheck, check_comparison_shape
from repro.experiments.sweeps import (
    SweepPoint,
    SweepResult,
    sweep_control_interval,
    sweep_offered_load,
)

__all__ = [
    "ScenarioSpec",
    "as_spec",
    "PAPER_SCENARIOS",
    "paper_scenario",
    "resolve_scheme",
    "SchemeStack",
    "build_stack",
    "run_job",
    "run_scenario",
    "run_scheme",
    "run_comparison",
    "FigureData",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
    "FIGURE_GENERATORS",
    "ShapeCheck",
    "check_comparison_shape",
    "SweepPoint",
    "SweepResult",
    "sweep_control_interval",
    "sweep_offered_load",
]
