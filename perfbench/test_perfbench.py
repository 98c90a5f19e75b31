"""Tests of the benchmark's own arithmetic and tracing hygiene."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import ENTRY_POINTS, Span, Tracer, covered_length, self_times, tail  # noqa: E402


def make_span(start, end, parent=-1):
    span = Span("x", start, parent, None)
    span.end = end
    return span


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 6] > grandchild [2, 3]
    spans = [make_span(0, 10), make_span(1, 6, parent=0), make_span(2, 3, parent=1)]
    assert self_times(spans) == pytest.approx([5.0, 4.0, 1.0])


def test_self_time_of_back_to_back_children():
    # Two children that touch and a third that overlaps the second.
    spans = [make_span(0, 10), make_span(1, 3, 0), make_span(3, 5, 0), make_span(4, 6, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)
    assert covered_length([], 0, 10) == 0.0


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert tail(samples) == (99.0, 990, 1000)
    assert tail(range(1, 10001)) == (99.9, 9990, 10000)
    # 100 samples: p99 and p99.9 leave fewer than ten beyond, p90 leaves ten.
    assert tail(range(1, 101)) == (90.0, 90, 100)


def test_tail_with_too_few_samples_reports_the_maximum_and_count():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail([]) == (0.0, 0.0, 0)


def small_pareto(scheme="scda", seed=7):
    return workloads.ParetoRun(scheme, seed, requests=40)


def test_digest_is_stable_across_two_runs_of_one_seed():
    first, second = small_pareto(), small_pareto()
    a, b = first.run_op(0), second.run_op(0)
    assert not a.error and not b.error
    assert a.digest == b.digest
    assert small_pareto(seed=8).run_op(0).digest != a.digest


def originals():
    found = []
    for _, module, path in ENTRY_POINTS:
        owner, attr = tracing._resolve(module, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        found.append((owner, attr, raw))
    return found


def test_tracer_removes_every_wrapper_and_leaves_results_unchanged():
    before = originals()
    plain = small_pareto().run_op(0)
    tracer = Tracer()
    with tracer:
        for owner, attr, raw in before:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not raw, f"{attr} was not wrapped"
        traced = small_pareto().run_op(0)
    for owner, attr, raw in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is raw, f"{attr} still wrapped after removal"
    assert traced.digest == plain.digest
    names = {span.name for span in tracer.spans}
    assert {"sim.step", "network.fluid", "core.controller.run_round", "cluster.write"} <= names
    count = len(tracer.spans)
    small_pareto().run_op(0)
    assert len(tracer.spans) == count, "spans recorded after removal"


def test_benchmark_json_lists_every_metric_the_run_prints():
    import json

    import layers
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
