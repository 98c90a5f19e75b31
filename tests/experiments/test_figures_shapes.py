"""Tests for the figure generators and the qualitative shape checks.

These are integration tests: they run scaled-down versions of the paper's
scenarios end to end, so they are the slowest tests in the suite (a few
seconds each).
"""

import numpy as np
import pytest

from repro.experiments.spec import ScenarioSpec, paper_scenario
from repro.experiments.figures import (
    FIGURE_DEFAULT_SCENARIOS,
    FIGURE_GENERATORS,
    FigureData,
    figure08,
    figure09,
    figure17,
    figure18,
    generate_figure,
)
from repro.experiments.runner import run_comparison
from repro.experiments.shapes import afct_fluctuation_ratio, check_comparison_shape
from repro.metrics.replication import ReplicatedComparison, ReplicatedResult

MB = 1024.0 * 1024.0


def _fake_ensemble(comparison, n):
    """An n-replicate ensemble reusing one comparison's results per replicate."""
    return ReplicatedComparison(
        scenario=comparison.scenario,
        candidate=ReplicatedResult(
            scheme=comparison.candidate.scheme,
            seeds=list(range(n)),
            results=[comparison.candidate] * n,
        ),
        baseline=ReplicatedResult(
            scheme=comparison.baseline.scheme,
            seeds=list(range(n)),
            results=[comparison.baseline] * n,
        ),
    )


@pytest.fixture(scope="module")
def pareto_comparison():
    cfg = ScenarioSpec.pareto_poisson(sim_time_s=6.0, seed=11, arrival_rate_per_s=30.0)
    return run_comparison(cfg)


@pytest.fixture(scope="module")
def video_comparison():
    cfg = paper_scenario("video", 8.0, seed=12)
    return run_comparison(cfg)


class TestFigureData:
    def test_add_series_validates_lengths(self):
        fig = FigureData("figX", "t", "x", "y")
        with pytest.raises(ValueError):
            fig.add_series("bad", np.array([1.0, 2.0]), np.array([1.0]))

    def test_as_table_renders_all_series(self):
        fig = FigureData("figX", "demo", "x", "y")
        fig.add_series("a", np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        fig.add_series("b", np.array([1.0, 2.0]), np.array([30.0, 40.0]))
        table = fig.as_table()
        assert "figX" in table and "a" in table and "b" in table
        assert len(table.splitlines()) == 4

    def test_generator_registry_covers_every_figure(self):
        assert set(FIGURE_GENERATORS) == {f"fig{i:02d}" for i in range(7, 19)}


class TestFigureGenerators:
    def test_throughput_figure_has_both_schemes(self, pareto_comparison):
        fig = figure17(comparison=pareto_comparison)
        assert set(fig.series) == {"SCDA", "RandTCP"}
        assert fig.y_label.startswith("Avg. Inst. Thpt")
        for x, y in fig.series.values():
            assert len(x) == len(y) > 0

    def test_fct_cdf_figure_monotone_series(self, pareto_comparison):
        fig = figure18(comparison=pareto_comparison)
        for x, y in fig.series.values():
            assert np.all(np.diff(y) >= 0)
            assert y[-1] == pytest.approx(1.0)

    def test_afct_figure_bins_in_mb(self, video_comparison):
        fig = figure09(comparison=video_comparison)
        for x, y in fig.series.values():
            assert len(x) == len(y) > 0
            assert x.max() <= 31.0  # MB units
            assert np.all(y > 0)

    def test_fct_cdf_video_figure(self, video_comparison):
        fig = figure08(comparison=video_comparison)
        assert set(fig.series) == {"SCDA", "RandTCP"}
        assert fig.summary["speedup_afct"] > 1.0


class TestEnsembleFigures:
    def test_single_replicate_ensemble_is_bit_identical(self, pareto_comparison):
        single = figure17(comparison=pareto_comparison)
        replicated = figure17(ensemble=_fake_ensemble(pareto_comparison, 1))
        assert replicated.as_table() == single.as_table()
        assert replicated.summary == single.summary
        assert not replicated.bands

    def test_multi_replicate_figure_renders_error_bands(self, pareto_comparison):
        fig = figure17(ensemble=_fake_ensemble(pareto_comparison, 3))
        assert set(fig.bands) == set(fig.series) == {"SCDA", "RandTCP"}
        table = fig.as_table()
        assert "SCDA lo" in table and "SCDA hi" in table
        # Identical replicates: zero-width bands centred on the mean curve.
        x, lower, upper = fig.bands["SCDA"]
        np.testing.assert_allclose(lower, upper)
        np.testing.assert_allclose(fig.series["SCDA"][1], lower)

    def test_multi_replicate_summary_carries_ci_bounds(self, pareto_comparison):
        fig = figure18(ensemble=_fake_ensemble(pareto_comparison, 2))
        assert "speedup_afct" in fig.summary
        assert "speedup_afct_ci_lower" in fig.summary
        assert "speedup_afct_ci_upper" in fig.summary
        assert fig.ensemble is not None and fig.ensemble.n_replicates == 2
        assert fig.comparison is not None  # replicate 0, for shape checks

    def test_every_generator_accepts_an_ensemble(self, pareto_comparison, video_comparison):
        ensemble_by_scenario = {
            "pareto": _fake_ensemble(pareto_comparison, 2),
            "video": _fake_ensemble(video_comparison, 2),
        }
        pareto_figs = {"fig17", "fig18"}
        for figure_id, generator in FIGURE_GENERATORS.items():
            ensemble = ensemble_by_scenario[
                "pareto" if figure_id in pareto_figs else "video"
            ]
            fig = generator(ensemble=ensemble)
            assert fig.series, figure_id
            assert fig.bands, figure_id

    def test_empty_first_replicate_falls_back_to_a_non_empty_grid(self, pareto_comparison):
        from repro.metrics.comparison import SchemeResult

        empty_candidate = SchemeResult(scheme=pareto_comparison.candidate.scheme)
        empty_baseline = SchemeResult(scheme=pareto_comparison.baseline.scheme)
        ensemble = ReplicatedComparison(
            scenario=pareto_comparison.scenario,
            candidate=ReplicatedResult(
                scheme=pareto_comparison.candidate.scheme,
                seeds=[0, 1, 2],
                results=[empty_candidate, pareto_comparison.candidate,
                         pareto_comparison.candidate],
            ),
            baseline=ReplicatedResult(
                scheme=pareto_comparison.baseline.scheme,
                seeds=[0, 1, 2],
                results=[empty_baseline, pareto_comparison.baseline,
                         pareto_comparison.baseline],
            ),
        )
        fig = figure18(ensemble=ensemble)
        # The degenerate replicate 0 is skipped, not allowed to blank the figure.
        for name, (x, y) in fig.series.items():
            assert len(x) > 0, name
        assert set(fig.bands) == set(fig.series)

    def test_comparison_and_ensemble_are_mutually_exclusive(self, pareto_comparison):
        with pytest.raises(ValueError, match="not both"):
            figure17(
                comparison=pareto_comparison,
                ensemble=_fake_ensemble(pareto_comparison, 1),
            )

    def test_band_requires_matching_series(self):
        fig = FigureData("figX", "t", "x", "y")
        with pytest.raises(ValueError, match="no matching series"):
            fig.add_band("ghost", np.array([1.0]), np.array([0.5]), np.array([1.5]))

    def test_generate_figure_covers_every_figure_default(self):
        assert set(FIGURE_DEFAULT_SCENARIOS) == set(FIGURE_GENERATORS)
        with pytest.raises(ValueError, match="unknown figure"):
            generate_figure("fig99")
        with pytest.raises(ValueError, match="seeds"):
            generate_figure("fig17", seeds=0)


class TestShapes:
    def test_scda_beats_randtcp_on_pareto_poisson(self, pareto_comparison):
        shape = check_comparison_shape(pareto_comparison)
        assert shape.fct_improved, shape
        assert shape.throughput_not_worse, shape
        assert shape.cdf_mostly_dominates, shape
        assert shape.all_passed

    def test_scda_beats_randtcp_on_video_traces(self, video_comparison):
        shape = check_comparison_shape(video_comparison)
        assert shape.fct_improved, shape
        assert shape.all_passed

    def test_fct_reduction_is_in_the_paper_ballpark(self, pareto_comparison):
        # The paper reports roughly 50 % lower transfer times; our flow-level
        # reproduction must show at least a 25 % reduction.
        shape = check_comparison_shape(pareto_comparison)
        assert shape.fct_reduction_fraction >= 0.25

    def test_afct_fluctuation_is_larger_for_randtcp(self, video_comparison):
        ratio = afct_fluctuation_ratio(video_comparison, max_size_bytes=31 * MB)
        # RandTCP's AFCT-vs-size curve should fluctuate at least as much as SCDA's.
        assert np.isnan(ratio) or ratio >= 0.8
