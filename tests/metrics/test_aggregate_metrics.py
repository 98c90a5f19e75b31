"""Tests for aggregate-flow (multiplicity/tenant) metrics semantics.

Three invariants:

* records carry multiplicity and tenant losslessly through ``to_dict`` /
  ``from_dict`` and the JSONL :class:`ResultStore` — and payloads written
  *before* the fields existed still load;
* every summary statistic is session-weighted — an aggregate record of
  multiplicity N is indistinguishable from N discrete records with the same
  FCT and goodput;
* a multiplicity-1, tenant-free run is byte-identical to the historical
  discrete path everywhere.
"""

import json

import numpy as np
import pytest

from repro.exec.job import ExperimentJob
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.metrics.comparison import SchemeResult
from repro.metrics.fct import FctStatistics, afct_by_size_bins, average_fct
from repro.metrics.records import FlowRecord
from repro.metrics.tenancy import jain_fairness_index, per_tenant_extras
from repro.network.flow import FlowKind


def record(
    flow_id=0,
    size=1e6,
    finished=1.0,
    multiplicity=1,
    tenant="",
    kind=FlowKind.DATA,
):
    return FlowRecord(
        flow_id=flow_id,
        size_bytes=size,
        created_at_s=0.0,
        started_at_s=0.0,
        finished_at_s=finished,
        kind=kind,
        src="a",
        dst="b",
        multiplicity=multiplicity,
        tenant=tenant,
    )


def expand(records):
    """The discrete-equivalent population: each record repeated N times."""
    out = []
    for r in records:
        out.extend(
            record(
                flow_id=r.flow_id,
                size=r.size_bytes,
                finished=r.finished_at_s,
                tenant=r.tenant,
            )
            for _ in range(r.multiplicity)
        )
    return out


class TestRecordRoundTrip:
    def test_to_dict_carries_multiplicity_and_tenant(self):
        r = record(multiplicity=500, tenant="cdn-a")
        data = r.to_dict()
        assert data["multiplicity"] == 500
        assert data["tenant"] == "cdn-a"
        assert FlowRecord.from_dict(data) == r

    def test_pre_aggregate_payloads_still_load(self):
        data = record().to_dict()
        del data["multiplicity"]
        del data["tenant"]
        loaded = FlowRecord.from_dict(data)
        assert loaded.multiplicity == 1
        assert loaded.tenant == ""

    def test_multiplicity_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            record(multiplicity=0)
        with pytest.raises(ValueError):
            record(multiplicity=-3)

    def test_json_round_trip_is_lossless(self):
        r = record(multiplicity=123456, tenant="tenant:with:colons")
        assert FlowRecord.from_dict(json.loads(json.dumps(r.to_dict()))) == r


class TestSessionWeightedStatistics:
    def _population(self):
        return [
            record(flow_id=0, size=1e6, finished=1.0, multiplicity=10, tenant="a"),
            record(flow_id=1, size=2e6, finished=3.0, multiplicity=1, tenant="b"),
            record(flow_id=2, size=5e5, finished=0.5, multiplicity=4, tenant="a"),
        ]

    def test_average_fct_equals_discrete_expansion(self):
        agg = self._population()
        assert average_fct(agg) == average_fct(expand(agg))

    def test_fct_statistics_equal_discrete_expansion(self):
        agg = self._population()
        reps = [r.multiplicity for r in agg]
        weighted = FctStatistics.from_fcts([r.fct_s for r in agg], reps)
        discrete = FctStatistics.from_fcts([r.fct_s for r in expand(agg)])
        assert weighted == discrete
        assert weighted.count == 15

    def test_afct_bins_equal_discrete_expansion(self):
        agg = self._population()
        edges = [1e5, 1e6 + 1, 1e7]
        centers_a, afct_a, counts_a = afct_by_size_bins(agg, edges)
        centers_d, afct_d, counts_d = afct_by_size_bins(expand(agg), edges)
        np.testing.assert_array_equal(centers_a, centers_d)
        np.testing.assert_array_equal(counts_a, counts_d)
        np.testing.assert_array_equal(afct_a, afct_d)

    def test_scheme_result_fcts_and_goodput_expand(self):
        agg = SchemeResult(scheme="scda", records=self._population())
        disc = SchemeResult(scheme="scda", records=expand(self._population()))
        np.testing.assert_array_equal(np.sort(agg.fcts()), np.sort(disc.fcts()))
        assert agg.mean_goodput_kBps() == pytest.approx(disc.mean_goodput_kBps(), rel=1e-12)
        assert agg.completed_flows == 3
        assert agg.completed_sessions == 15 == disc.completed_flows

    def test_all_discrete_population_uses_original_code_path(self):
        records = [record(flow_id=i, finished=float(i + 1)) for i in range(5)]
        assert average_fct(records) == float(
            np.mean([r.fct_s for r in records])
        )


class TestTenancyExtras:
    def test_untagged_runs_produce_no_extras(self):
        assert per_tenant_extras([record(), record(multiplicity=7)]) == {}

    def test_per_tenant_breakdown_and_fairness(self):
        records = [
            record(flow_id=0, finished=1.0, multiplicity=10, tenant="gold"),
            record(flow_id=1, finished=2.0, multiplicity=10, tenant="gold"),
            record(flow_id=2, finished=2.0, multiplicity=5, tenant="bronze"),
        ]
        extras = per_tenant_extras(records)
        assert extras["tenant_count"] == 2.0
        assert extras["tenant:gold:sessions"] == 20.0
        assert extras["tenant:gold:flows"] == 2.0
        assert extras["tenant:gold:mean_fct_s"] == pytest.approx(1.5)
        assert extras["tenant:bronze:sessions"] == 5.0
        assert 0.0 < extras["tenant_fairness_jain"] <= 1.0

    def test_untagged_records_in_tagged_run_become_pseudo_tenant(self):
        records = [record(tenant="a"), record()]
        extras = per_tenant_extras(records)
        assert extras["tenant:untagged:flows"] == 1.0

    def test_jain_index_properties(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        assert np.isnan(jain_fairness_index([]))


class TestStoreRoundTrip:
    def _result(self, multiplicity=1000, tenant="cdn-a"):
        return SchemeResult(
            scheme="scda",
            records=[
                record(flow_id=0, multiplicity=multiplicity, tenant=tenant),
                record(flow_id=1),
            ],
            extras={"tenant_count": 1.0},
        )

    def test_result_store_round_trips_aggregate_records(self, tmp_path):
        store = ResultStore(tmp_path / "agg.jsonl")
        job = ExperimentJob(
            spec=ScenarioSpec.pareto_poisson(sim_time_s=2.0, seed=5), scheme="scda"
        )
        result = self._result(multiplicity=77, tenant="t-9")
        store.put(job, result)
        loaded = ResultStore(tmp_path / "agg.jsonl").get(job)
        assert loaded.records[0].multiplicity == 77
        assert loaded.records[0].tenant == "t-9"
        assert loaded.canonical_dict() == result.canonical_dict()

    def test_multiplicity_one_store_lines_byte_identical_to_discrete(self, tmp_path):
        """An N=1 aggregate writes the exact line a discrete run writes."""
        job = ExperimentJob(
            spec=ScenarioSpec.pareto_poisson(sim_time_s=2.0, seed=5), scheme="scda"
        )
        discrete = SchemeResult(scheme="scda", records=[record(flow_id=3)])
        explicit = SchemeResult(
            scheme="scda", records=[record(flow_id=3, multiplicity=1, tenant="")]
        )
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ResultStore(path_a).put(job, discrete)
        ResultStore(path_b).put(job, explicit)

        def stable_lines(path):
            # The wall-clock meta is host-dependent; everything else must match.
            lines = []
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                entry.get("meta", {}).pop("wall_clock_s", None)
                lines.append(json.dumps(entry, sort_keys=True))
            return lines

        assert stable_lines(path_a) == stable_lines(path_b)
