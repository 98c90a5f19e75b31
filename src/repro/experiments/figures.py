"""Per-figure generators: regenerate the data series of Figures 7-18.

Each ``figureNN`` function runs (or reuses) the SCDA-vs-RandTCP comparison on
the corresponding scenario and returns a :class:`FigureData` holding exactly
the series the paper plots: throughput-over-time curves, FCT CDFs, or
AFCT-versus-file-size curves, one series per scheme.

The functions accept a :class:`~repro.experiments.spec.ScenarioSpec` so tests
and benchmarks can run scaled-down versions; without one, each runs its
:data:`~repro.experiments.spec.PAPER_SCENARIOS` entry at that entry's
default duration.

Every generator also accepts a multi-seed ``ensemble`` (a
:class:`~repro.metrics.replication.ReplicatedComparison`, typically from
:func:`repro.exec.replication.run_replicated_comparison` or
:func:`~repro.exec.replication.ensemble_from_store`): each scheme's curve
becomes the pointwise mean across replicates with a 95 % confidence band
(rendered as extra ``lo``/``hi`` columns by :meth:`FigureData.as_table`).
An N=1 ensemble degrades to exactly the single-seed figure — same series,
same summary, same table bytes — so the pinned outputs stay pinned.
:func:`generate_figure` is the one-call entry point that takes ``seeds=N``
and plumbs the replication through the executor layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.experiments.runner import run_comparison
from repro.experiments.spec import PAPER_SCENARIOS, ScenarioSpec, paper_scenario
from repro.metrics.comparison import ComparisonResult, SchemeResult
from repro.metrics.fct import size_bin_edges
from repro.metrics.replication import ReplicatedComparison, ReplicatedResult
from repro.metrics.stats import DEFAULT_CONFIDENCE, z_value

MB = 1024.0 * 1024.0
KB = 1024.0

#: Either comparison shape a figure builder accepts.
ComparisonLike = Union[ComparisonResult, ReplicatedComparison]


@dataclass
class FigureData:
    """The data behind one figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    #: series name -> (x values, y values)
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: headline comparison numbers for EXPERIMENTS.md
    summary: Dict[str, float] = field(default_factory=dict)
    comparison: Optional[ComparisonResult] = None
    #: series name -> (x, lower, upper) confidence band (multi-seed figures)
    bands: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: the multi-seed ensemble behind the figure, when one was used
    ensemble: Optional[ReplicatedComparison] = None

    def add_series(self, name: str, x: np.ndarray, y: np.ndarray) -> None:
        """Attach one named curve."""
        if len(x) != len(y):
            raise ValueError(f"series {name!r}: x and y lengths differ ({len(x)} vs {len(y)})")
        self.series[name] = (np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def add_band(
        self, name: str, x: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        """Attach a confidence band around the series called ``name``."""
        if name not in self.series:
            raise ValueError(f"band {name!r} has no matching series")
        if not (len(x) == len(lower) == len(upper)):
            raise ValueError(
                f"band {name!r}: x/lower/upper lengths differ "
                f"({len(x)}/{len(lower)}/{len(upper)})"
            )
        self.bands[name] = (
            np.asarray(x, dtype=float),
            np.asarray(lower, dtype=float),
            np.asarray(upper, dtype=float),
        )

    def as_table(self) -> str:
        """A plain-text rendering of the series (rows = x, one column per series).

        Series with a confidence band get two extra columns — ``<name> lo``
        and ``<name> hi`` — directly after their mean column.  A figure
        without bands renders exactly as it always has, so single-seed
        tables stay byte-identical.
        """
        if not self.series:
            return f"{self.figure_id}: (no data)"
        names = list(self.series)
        header = [self.x_label]
        for name in names:
            header.append(name)
            if name in self.bands:
                header.extend([f"{name} lo", f"{name} hi"])
        lines = [f"# {self.figure_id}: {self.title}", "\t".join(header)]
        reference_x = self.series[names[0]][0]
        for i, x in enumerate(reference_x):
            row = [f"{x:.4g}"]
            for name in names:
                xs, ys = self.series[name]
                row.append(f"{ys[i]:.4g}" if i < len(ys) else "")
                if name in self.bands:
                    _, lower, upper = self.bands[name]
                    row.append(f"{lower[i]:.4g}" if i < len(lower) else "")
                    row.append(f"{upper[i]:.4g}" if i < len(upper) else "")
            lines.append("\t".join(row))
        return "\n".join(lines)


# ------------------------------------------------------------------------------------------
# Builders shared by several figures
# ------------------------------------------------------------------------------------------
#: maps one scheme's result to the (x, y) curve a figure plots
CurveFn = Callable[[SchemeResult], Tuple[np.ndarray, np.ndarray]]


def _add_replicated_series(
    fig: FigureData,
    replicated: ReplicatedResult,
    curve_fn: CurveFn,
    confidence: float = DEFAULT_CONFIDENCE,
    interp_left: Optional[float] = None,
) -> None:
    """One scheme's curve across replicates: pointwise mean + CI band.

    The first *non-empty* replicate's x grid is the reference; the other
    replicates interpolate onto it (their grids — CDF supports, finite
    AFCT bins — generally differ).  ``interp_left`` is the value a curve
    contributes below its own support (CDFs pass 0.0: an empirical CDF *is*
    zero left of its smallest sample, and ``np.interp``'s default clamp to
    ``y[0]`` would fabricate left-tail mass there).  A single replicate
    adds its curve verbatim and no band, so N=1 figures match the
    single-seed output exactly.  Degenerate replicates (no completed flows
    at tiny scale) carry no curve to average in and are skipped rather
    than fabricated — wherever in the ensemble they sit, including
    replicate 0.
    """
    curves = [curve_fn(result) for result in replicated.results]
    name = replicated.scheme
    if len(curves) == 1:
        fig.add_series(name, *curves[0])
        return
    non_empty = [(x, y) for x, y in curves if len(x) > 0]
    if not non_empty:
        fig.add_series(name, *curves[0])  # every replicate empty: empty series
        return
    x0 = non_empty[0][0]
    stacked = np.vstack(
        [np.interp(x0, x, y, left=interp_left) for x, y in non_empty]
    )
    mean = stacked.mean(axis=0)
    fig.add_series(name, x0, mean)
    n = stacked.shape[0]
    if n > 1:
        std = stacked.std(axis=0, ddof=1)
        half = z_value(confidence) * std / np.sqrt(n)
        fig.add_band(name, x0, mean - half, mean + half)


def _replicated_summary(ensemble: ReplicatedComparison) -> Dict[str, float]:
    """Flat headline numbers for a multi-seed figure.

    Same keys as :meth:`ComparisonResult.summary` (holding the
    across-replicate means) plus ``<key>_ci_lower``/``<key>_ci_upper``
    bounds.  An N=1 ensemble returns its sole comparison's summary
    unchanged, keeping the pinned single-seed values bit-identical.
    """
    if ensemble.n_replicates == 1:
        return ensemble.comparisons()[0].summary()
    flat: Dict[str, float] = {}
    for key, stats in ensemble.summary().items():
        flat[key] = stats["mean"]
        flat[f"{key}_ci_lower"] = stats["ci_lower"]
        flat[f"{key}_ci_upper"] = stats["ci_upper"]
    return flat


def _build_series_figure(
    fig: FigureData,
    comparison: ComparisonLike,
    curve_fn: CurveFn,
    interp_left: Optional[float] = None,
) -> FigureData:
    """Fill ``fig`` from either comparison shape: plain curves, or mean + band."""
    if isinstance(comparison, ReplicatedComparison):
        fig.ensemble = comparison
        fig.comparison = comparison.comparisons()[0]
        for replicated in (comparison.baseline, comparison.candidate):
            _add_replicated_series(fig, replicated, curve_fn, interp_left=interp_left)
        fig.summary = _replicated_summary(comparison)
        return fig
    fig.comparison = comparison
    for result in (comparison.baseline, comparison.candidate):
        x, y = curve_fn(result)
        fig.add_series(result.scheme, x, y)
    fig.summary = comparison.summary()
    return fig


def _throughput_figure(
    figure_id: str, title: str, comparison: ComparisonLike
) -> FigureData:
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        x_label="Simulation time (sec)",
        y_label="Avg. Inst. Thpt (KB/sec)",
    )
    return _build_series_figure(fig, comparison, lambda r: r.throughput.series())


def _fct_cdf_figure(figure_id: str, title: str, comparison: ComparisonLike) -> FigureData:
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        x_label="FCT (sec)",
        y_label="FCT CDF",
    )
    # An empirical CDF is 0 left of its smallest sample: replicates whose
    # support starts later must contribute 0 there, not their first value.
    return _build_series_figure(fig, comparison, lambda r: r.fct_cdf(), interp_left=0.0)


def _afct_figure(
    figure_id: str,
    title: str,
    comparison: ComparisonLike,
    max_size_bytes: float,
    num_bins: int,
    x_unit_bytes: float,
    x_label: str,
    min_size_bytes: float = 1.0,
) -> FigureData:
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label="AFCT (sec)",
    )
    edges = size_bin_edges(min_size_bytes, max_size_bytes, num_bins)

    def afct_curve(result: SchemeResult) -> Tuple[np.ndarray, np.ndarray]:
        centers, afct, _counts = result.afct_curve(edges)
        mask = np.isfinite(afct)
        return centers[mask] / x_unit_bytes, afct[mask]

    return _build_series_figure(fig, comparison, afct_curve)


def _ensure_comparison(
    figure_id: str,
    config: Optional[ScenarioSpec],
    comparison: Optional[ComparisonResult],
    ensemble: Optional[ReplicatedComparison] = None,
) -> ComparisonLike:
    if ensemble is not None:
        if comparison is not None:
            raise ValueError("pass either comparison or ensemble, not both")
        return ensemble
    if comparison is not None:
        return comparison
    return run_comparison(config if config is not None else default_scenario(figure_id))


#: figure id -> the name of the paper scenario its generator defaults to,
#: read off :data:`~repro.experiments.spec.PAPER_SCENARIOS`.  ``figureNN``,
#: :func:`generate_figure` and the CLI's ``figure`` command all use it.
FIGURE_DEFAULT_SCENARIOS: Dict[str, str] = {
    figure_id: name
    for name, entry in PAPER_SCENARIOS.items()
    for figure_id in entry.figures
}


def default_scenario(figure_id: str) -> ScenarioSpec:
    """The scenario ``figure_id`` runs when given none (seed 1, default duration)."""
    return paper_scenario(FIGURE_DEFAULT_SCENARIOS[figure_id])


# ------------------------------------------------------------------------------------------
# Figures 7-9: video traces with control flows
# ------------------------------------------------------------------------------------------
def figure07(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """Average instantaneous throughput, video traces *with* control flows."""
    comparison = _ensure_comparison("fig07", config, comparison, ensemble)
    return _throughput_figure(
        "fig07", "RandTCP vs SCDA instantaneous average throughput (video + control)", comparison
    )


def figure08(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """FCT CDF, video traces *with* control flows."""
    comparison = _ensure_comparison("fig08", config, comparison, ensemble)
    return _fct_cdf_figure("fig08", "Content upload time CDF (video + control)", comparison)


def figure09(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """AFCT versus file size, video traces *with* control flows."""
    comparison = _ensure_comparison("fig09", config, comparison, ensemble)
    return _afct_figure(
        "fig09",
        "Average file completion time vs file size (video + control)",
        comparison,
        max_size_bytes=31 * MB,
        num_bins=10,
        x_unit_bytes=MB,
        x_label="File Size (MB)",
    )


# ------------------------------------------------------------------------------------------
# Figures 10-12: video traces without control flows
# ------------------------------------------------------------------------------------------
def figure10(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """Average instantaneous throughput, video traces *without* control flows."""
    comparison = _ensure_comparison("fig10", config, comparison, ensemble)
    return _throughput_figure(
        "fig10", "RandTCP vs SCDA instantaneous average throughput (video only)", comparison
    )


def figure11(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """FCT CDF, video traces *without* control flows."""
    comparison = _ensure_comparison("fig11", config, comparison, ensemble)
    return _fct_cdf_figure("fig11", "Content upload time CDF (video only)", comparison)


def figure12(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """AFCT versus file size, video traces *without* control flows."""
    comparison = _ensure_comparison("fig12", config, comparison, ensemble)
    return _afct_figure(
        "fig12",
        "Average file completion time vs file size (video only)",
        comparison,
        max_size_bytes=31 * MB,
        num_bins=10,
        x_unit_bytes=MB,
        x_label="File Size (MB)",
    )


# ------------------------------------------------------------------------------------------
# Figures 13-16: general datacenter traces
# ------------------------------------------------------------------------------------------
def figure13(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """AFCT versus file size, datacenter traces, K = 1."""
    comparison = _ensure_comparison("fig13", config, comparison, ensemble)
    return _afct_figure(
        "fig13",
        "Average file completion time vs file size (datacenter traces, K=1)",
        comparison,
        max_size_bytes=7000 * KB,
        num_bins=10,
        x_unit_bytes=KB,
        x_label="File Size (KBytes)",
    )


def figure14(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """FCT CDF, datacenter traces, K = 1."""
    comparison = _ensure_comparison("fig14", config, comparison, ensemble)
    return _fct_cdf_figure("fig14", "Content upload time CDF (datacenter traces, K=1)", comparison)


def figure15(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """AFCT versus file size, datacenter traces, K = 3."""
    comparison = _ensure_comparison("fig15", config, comparison, ensemble)
    return _afct_figure(
        "fig15",
        "Average file completion time vs file size (datacenter traces, K=3)",
        comparison,
        max_size_bytes=7000 * KB,
        num_bins=10,
        x_unit_bytes=KB,
        x_label="File Size (KBytes)",
    )


def figure16(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """FCT CDF, datacenter traces, K = 3."""
    comparison = _ensure_comparison("fig16", config, comparison, ensemble)
    return _fct_cdf_figure("fig16", "Content upload time CDF (datacenter traces, K=3)", comparison)


# ------------------------------------------------------------------------------------------
# Figures 17-18: Pareto sizes, Poisson arrivals
# ------------------------------------------------------------------------------------------
def figure17(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """Average instantaneous throughput, Pareto/Poisson workload."""
    comparison = _ensure_comparison("fig17", config, comparison, ensemble)
    return _throughput_figure(
        "fig17", "RandTCP vs SCDA instantaneous average throughput (Pareto/Poisson)", comparison
    )


def figure18(
    config: Optional[ScenarioSpec] = None,
    comparison: Optional[ComparisonResult] = None,
    ensemble: Optional[ReplicatedComparison] = None,
) -> FigureData:
    """FCT CDF, Pareto/Poisson workload."""
    comparison = _ensure_comparison("fig18", config, comparison, ensemble)
    return _fct_cdf_figure("fig18", "File completion time CDF (Pareto/Poisson)", comparison)


#: figure id -> generator
FIGURE_GENERATORS: Dict[str, Callable[..., FigureData]] = {
    "fig07": figure07,
    "fig08": figure08,
    "fig09": figure09,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
    "fig16": figure16,
    "fig17": figure17,
    "fig18": figure18,
}



def generate_figure(
    figure_id: str,
    config: Optional[ScenarioSpec] = None,
    seeds: int = 1,
    executor="serial",
    max_workers: Optional[int] = None,
    store=None,
    policy=None,
    fallback: bool = True,
    store_fsync: Optional[bool] = None,
) -> FigureData:
    """One figure, optionally as an N-seed ensemble with error bands.

    With all defaults (``seeds=1``, serial executor, no store) this is the
    historical single-seed path — the generator called directly,
    bit-identical to before the replication layer existed.  Any non-default
    execution option routes through
    :func:`repro.exec.replication.run_replicated_comparison`, so a
    ``seeds=1`` run with a store still caches (and resumes from) its
    results; the N=1 ensemble renders the identical figure.  ``seeds=N``
    hands the ensemble to the generator, which renders mean curves with
    confidence bands.
    """
    if figure_id not in FIGURE_GENERATORS:
        raise ValueError(
            f"unknown figure {figure_id!r}; "
            f"choose from {', '.join(sorted(FIGURE_GENERATORS))}"
        )
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    generator = FIGURE_GENERATORS[figure_id]
    if seeds == 1 and store is None and executor == "serial" and policy is None:
        return generator(config=config)
    # Lazy import: repro.exec builds on the experiments layer.
    from repro.exec.replication import run_replicated_comparison

    scenario = config if config is not None else default_scenario(figure_id)
    ensemble = run_replicated_comparison(
        scenario,
        seeds=seeds,
        executor=executor,
        max_workers=max_workers,
        store=store,
        policy=policy,
        fallback=fallback,
        store_fsync=store_fsync,
    )
    return generator(ensemble=ensemble)
