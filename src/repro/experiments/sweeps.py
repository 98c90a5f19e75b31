"""Parameter sweeps: how the SCDA-vs-RandTCP gap changes with load and scale.

The paper reports single operating points per figure; these sweeps extend the
evaluation by varying

* the offered load (arrival rate) — showing where the schemes' FCTs diverge
  and that there is no crossover where RandTCP becomes preferable, and
* the control interval τ — complementing the step-response analysis in
  :mod:`repro.analysis.convergence`.

Every sweep is planned into :class:`~repro.exec.job.ExperimentJob` s
(:mod:`repro.exec.planner`) and executed through a pluggable backend
(:mod:`repro.exec.executors`), so the points of a sweep run serially, on a
process pool or on cluster workers — with bit-identical numbers — and can be
cached/resumed through a :class:`~repro.exec.store.ResultStore`::

    sweep_offered_load([15, 40, 80], executor="process", max_workers=4,
                       store="results/load_sweep.jsonl")

Re-running against the same store recomputes nothing and only fills in
missing points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.runner import SchemeLike
from repro.experiments.spec import ScenarioSpec, as_spec
from repro.metrics.comparison import ComparisonResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call time otherwise: repro.exec builds on the
    # experiments layer, so a module-level import here would be circular.
    from repro.exec.executors import Executor, ProgressCallback
    from repro.exec.job import ExperimentJob
    from repro.exec.store import ResultStore

#: Arrival rate pinned by τ sweeps of the *default* scenario (flows/s) —
#: shared with the CLI's ``sweep tau`` so both surfaces plan identical jobs.
DEFAULT_TAU_SWEEP_ARRIVAL_RATE = 40.0


@dataclass
class SweepPoint:
    """One operating point of a sweep."""

    parameter: float
    candidate_mean_fct_s: float
    baseline_mean_fct_s: float
    speedup: float
    cdf_dominance: float

    @property
    def candidate_wins(self) -> bool:
        return self.speedup > 1.0

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict of this point."""
        return {
            "parameter": float(self.parameter),
            "candidate_mean_fct_s": float(self.candidate_mean_fct_s),
            "baseline_mean_fct_s": float(self.baseline_mean_fct_s),
            "speedup": float(self.speedup),
            "cdf_dominance": float(self.cdf_dominance),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output (lossless)."""
        return cls(**dict(data))


@dataclass
class SweepResult:
    """An ordered collection of sweep points."""

    parameter_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def parameters(self) -> List[float]:
        return [p.parameter for p in self.points]

    def speedups(self) -> List[float]:
        return [p.speedup for p in self.points]

    def crossover_points(self) -> List[float]:
        """Parameter values at which the baseline would win (none expected)."""
        return [p.parameter for p in self.points if not p.candidate_wins]

    def as_table(self) -> str:
        lines = [f"{self.parameter_name:>14s}  {'SCDA FCT':>10s}  {'RandTCP FCT':>12s}  {'speedup':>8s}"]
        for p in self.points:
            lines.append(
                f"{p.parameter:>14.4g}  {p.candidate_mean_fct_s:>10.3f}  "
                f"{p.baseline_mean_fct_s:>12.3f}  {p.speedup:>8.2f}"
            )
        return "\n".join(lines)

    # -- serialisation -----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict; round-trips via :meth:`from_dict`."""
        return {
            "parameter_name": self.parameter_name,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_dict` output (lossless)."""
        return cls(
            parameter_name=str(data["parameter_name"]),
            points=[SweepPoint.from_dict(p) for p in data.get("points", ())],
        )


def _base_spec(
    base: Optional[ScenarioSpec],
    sim_time: Optional[float],
    seed: Optional[int],
    topology: Optional[str],
) -> ScenarioSpec:
    """The spec each sweep point is derived from.

    Defaults to the paper's Pareto/Poisson scenario
    (:meth:`ScenarioSpec.pareto_poisson`); ``base`` substitutes any scenario
    and ``topology`` swaps the fabric by registry key (resetting the topology
    parameters to that fabric's defaults).  Explicit ``sim_time``/``seed``
    arguments override the base spec's values; left at ``None`` they keep the
    base's (or the paper defaults, 6 s / seed 1).
    """
    if base is not None:
        spec = as_spec(base)
        if sim_time is not None:
            spec = spec.with_sim_time(float(sim_time))
        if seed is not None:
            spec = spec.with_overrides(seed=int(seed))
    else:
        spec = ScenarioSpec.pareto_poisson(
            sim_time_s=6.0 if sim_time is None else float(sim_time),
            seed=1 if seed is None else int(seed),
        )
    if topology is not None:
        spec = spec.with_topology(topology)
    return spec


def points_from_jobs(
    jobs: Sequence["ExperimentJob"],
    results,
    parameter_name: str,
) -> List[SweepPoint]:
    """Fold the flat (job, result) map back into ordered sweep points.

    Jobs carry their sweep parameter and candidate/baseline role as tags
    (see :mod:`repro.exec.planner`); points are emitted in first-appearance
    order of the parameter, which is the order the planner received them in.
    This is the assembly step for callers that plan and execute jobs
    themselves (the CLI's ``sweep`` command does) instead of going through
    :func:`sweep_offered_load` / :func:`sweep_control_interval`.
    """
    by_parameter: Dict[float, Dict[str, ExperimentJob]] = {}
    order: List[float] = []
    for job in jobs:
        parameter = job.tags.get("parameter")
        if parameter is None:
            continue
        parameter = float(parameter)
        if parameter not in by_parameter:
            by_parameter[parameter] = {}
            order.append(parameter)
        by_parameter[parameter][str(job.tags.get("role"))] = job
    points: List[SweepPoint] = []
    for parameter in order:
        roles = by_parameter[parameter]
        comparison = ComparisonResult(
            scenario=f"{parameter_name}={parameter:g}",
            candidate=results[roles["candidate"].key],
            baseline=results[roles["baseline"].key],
        )
        points.append(
            SweepPoint(
                parameter=parameter,
                candidate_mean_fct_s=comparison.candidate.mean_fct_s(),
                baseline_mean_fct_s=comparison.baseline.mean_fct_s(),
                speedup=comparison.speedup_afct(),
                cdf_dominance=comparison.cdf_dominance(),
            )
        )
    return points


def sweep_offered_load(
    arrival_rates_per_s: Sequence[float],
    sim_time: Optional[float] = None,
    seed: Optional[int] = None,
    candidate: SchemeLike = "scda",
    baseline: SchemeLike = "rand-tcp",
    base: Optional[ScenarioSpec] = None,
    topology: Optional[str] = None,
    executor: Union[str, Executor] = "serial",
    max_workers: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Sweep the workload arrival rate and compare the schemes at each point.

    The schemes are registry keys (or :class:`SchemeSpec` objects) and the
    scenario is a :class:`ScenarioSpec`, so the sweep runs on any registered
    (topology, workload, scheme) combination — e.g.
    ``sweep_offered_load([20, 40], topology="fattree")``.  ``executor``,
    ``max_workers`` and ``store`` select the backend and enable
    caching/resume; every backend produces bit-identical points.
    """
    from repro.exec.executors import run_jobs
    from repro.exec.planner import plan_offered_load_sweep

    spec = _base_spec(base, sim_time, seed, topology)
    jobs = plan_offered_load_sweep(
        arrival_rates_per_s, base=spec, candidate=candidate, baseline=baseline
    )
    report = run_jobs(
        jobs, executor=executor, max_workers=max_workers, store=store, progress=progress
    )
    return SweepResult(
        parameter_name="arrival rate (flows/s)",
        points=points_from_jobs(jobs, report.results, "rate"),
    )


def sweep_control_interval(
    control_intervals_s: Sequence[float],
    sim_time: Optional[float] = None,
    seed: Optional[int] = None,
    arrival_rate_per_s: Optional[float] = None,
    base: Optional[ScenarioSpec] = None,
    topology: Optional[str] = None,
    candidate: SchemeLike = "scda",
    baseline: SchemeLike = "rand-tcp",
    executor: Union[str, Executor] = "serial",
    max_workers: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Sweep τ and compare the schemes at each control interval.

    ``arrival_rate_per_s`` left at ``None`` keeps the base scenario's own
    rate (40/s for the default Pareto/Poisson scenario).
    """
    from repro.exec.executors import run_jobs
    from repro.exec.planner import plan_control_interval_sweep, with_arrival_rate

    spec = _base_spec(base, sim_time, seed, topology)
    if arrival_rate_per_s is None and base is None:
        arrival_rate_per_s = DEFAULT_TAU_SWEEP_ARRIVAL_RATE
    if arrival_rate_per_s is not None:
        spec = with_arrival_rate(spec, float(arrival_rate_per_s))
    jobs = plan_control_interval_sweep(
        control_intervals_s, base=spec, candidate=candidate, baseline=baseline
    )
    report = run_jobs(
        jobs, executor=executor, max_workers=max_workers, store=store, progress=progress
    )
    return SweepResult(
        parameter_name="control interval (s)",
        points=points_from_jobs(jobs, report.results, "tau"),
    )
