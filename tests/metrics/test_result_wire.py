"""The result wire: ``SchemeResult.to_dict()`` across every boundary.

A computed result leaves its worker only as the plain dict
:meth:`SchemeResult.to_dict` builds: pickled through the process pool's
pipe, and as JSON in the worker daemon's ``POST /jobs`` answer.  The
dispatcher rebuilds it with :meth:`SchemeResult.from_dict`.  These tests pin
that the dict survives both hops bit-exactly — for random dicts of the
result shape, for special floats, for empty tables and for a real result of
every registered scheme.
"""

import json
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.executors import run_jobs
from repro.exec.planner import plan_matrix
from repro.experiments.spec import ScenarioSpec
from repro.metrics.comparison import SchemeResult
from repro.network.flow import FlowKind
from repro.registry import SCHEMES


def dumps(data):
    """The byte-identity yardstick: canonical sorted-key JSON."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def json_hop(data):
    """What the worker daemon's HTTP answer does to a result dict."""
    return json.loads(json.dumps(data))


def pickle_hop(data):
    """What the process pool's pipe does to a result dict."""
    return pickle.loads(pickle.dumps(data))


HOPS = {"json": json_hop, "pickle": pickle_hop}


# -- strategies matching the to_dict shape ---------------------------------------------

# Raw IEEE-754 bit patterns so the strategy covers -0.0, infinities and NaN
# payloads, not just the floats hypothesis likes.
any_float = st.binary(min_size=8, max_size=8).map(lambda b: struct.unpack("<d", b)[0])
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
name = st.text(max_size=8)


def record_rows():
    row = st.fixed_dictionaries(
        {
            "flow_id": int64,
            "size_bytes": any_float,
            "created_at_s": any_float,
            "started_at_s": any_float,
            "finished_at_s": any_float,
            "kind": st.sampled_from([kind.value for kind in FlowKind]),
            "src": name,
            "dst": name,
            "multiplicity": st.integers(min_value=1, max_value=2**63 - 1),
            "tenant": name,
        }
    )
    return st.lists(row, max_size=12)


def in_time_order(row):
    """A ``{"samples": [...]}`` table; series only accept time-ordered samples."""

    def ordered(rows):
        stamps = sorted(r["time_s"] for r in rows)
        return {"samples": [dict(r, time_s=t) for r, t in zip(rows, stamps)]}

    return st.lists(row, max_size=12).map(ordered)


def throughput_table():
    row = st.fixed_dictionaries(
        {
            "time_s": st.floats(allow_nan=False),
            "active_flows": int64,
            "aggregate_bps": any_float,
            "mean_flow_bps": any_float,
        }
    )
    return in_time_order(row)


def availability_table():
    row = st.fixed_dictionaries(
        {
            "time_s": st.floats(allow_nan=False),
            "links_down": int64,
            "links_total": int64,
            "flows_rerouted": int64,
            "flows_aborted": int64,
        }
    )
    return in_time_order(row)


def results(with_wall_clock):
    shape = {
        "scheme": name,
        "records": record_rows(),
        "throughput": throughput_table(),
        "availability": availability_table(),
        "sla_violations": int64,
        "extras": st.dictionaries(name, any_float, max_size=6),
    }
    if with_wall_clock:
        shape["wall_clock_s"] = any_float
    return st.fixed_dictionaries(shape)


def sample_result():
    """One fixed result for the deterministic tests."""
    return {
        "scheme": "ecmp",
        "records": [
            {
                "flow_id": 7,
                "size_bytes": 1.5e9,
                "created_at_s": 0.25,
                "started_at_s": 0.25,
                "finished_at_s": 1.75,
                "kind": "data",
                "src": "h0",
                "dst": "h3",
                "multiplicity": 1,
                "tenant": "",
            },
            {
                "flow_id": 8,
                "size_bytes": 2048.0,
                "created_at_s": 0.5,
                "started_at_s": 0.5,
                "finished_at_s": 0.51,
                "kind": "control",
                "src": "h1",
                "dst": "h0",
                "multiplicity": 250,
                "tenant": "cdn-a",
            },
        ],
        "throughput": {
            "samples": [
                {
                    "time_s": 0.0,
                    "active_flows": 2,
                    "aggregate_bps": 9.5e9,
                    "mean_flow_bps": 4.75e9,
                }
            ]
        },
        "availability": {
            "samples": [
                {
                    "time_s": 0.0,
                    "links_down": 0,
                    "links_total": 48,
                    "flows_rerouted": 0,
                    "flows_aborted": 0,
                }
            ]
        },
        "sla_violations": 1,
        "wall_clock_s": 0.125,
        "extras": {"fct_p99_s": 1.5},
    }


class TestRandomResults:
    @pytest.mark.parametrize("hop", sorted(HOPS))
    @settings(max_examples=100, deadline=None)
    @given(data=results(with_wall_clock=True))
    def test_to_dict_output_survives_the_hop(self, hop, data):
        rebuilt = SchemeResult.from_dict(HOPS[hop](data))
        assert dumps(rebuilt.to_dict()) == dumps(data)

    @pytest.mark.parametrize("hop", sorted(HOPS))
    @settings(max_examples=100, deadline=None)
    @given(data=results(with_wall_clock=False))
    def test_canonical_dict_survives_the_hop(self, hop, data):
        rebuilt = SchemeResult.from_dict(HOPS[hop](data))
        assert dumps(rebuilt.canonical_dict()) == dumps(data)
        assert rebuilt.wall_clock_s == 0.0


class TestEdgeCases:
    @pytest.mark.parametrize("hop", sorted(HOPS))
    def test_special_floats_are_bit_exact(self, hop):
        data = sample_result()
        data["records"][0]["size_bytes"] = -0.0
        data["records"][0]["created_at_s"] = float("inf")
        data["records"][1]["finished_at_s"] = float("-inf")
        data["extras"]["nan"] = float("nan")
        data["wall_clock_s"] = 5e-324  # the smallest subnormal
        rebuilt = SchemeResult.from_dict(HOPS[hop](data)).to_dict()
        assert math.copysign(1.0, rebuilt["records"][0]["size_bytes"]) == -1.0
        assert rebuilt["records"][0]["created_at_s"] == float("inf")
        assert rebuilt["records"][1]["finished_at_s"] == float("-inf")
        assert math.isnan(rebuilt["extras"]["nan"])
        assert rebuilt["wall_clock_s"] == 5e-324
        assert dumps(rebuilt) == dumps(data)

    @pytest.mark.parametrize("hop", sorted(HOPS))
    def test_empty_tables_survive_the_hop(self, hop):
        data = sample_result()
        data["records"] = []
        data["throughput"]["samples"] = []
        data["availability"]["samples"] = []
        data["extras"] = {}
        rebuilt = SchemeResult.from_dict(HOPS[hop](data))
        assert rebuilt.completed_flows == 0
        assert dumps(rebuilt.to_dict()) == dumps(data)


@pytest.fixture(scope="module")
def scheme_results():
    """One real result per registered scheme, on the shortest Pareto scenario."""
    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=11)
    jobs = plan_matrix([spec], SCHEMES.names())
    report = run_jobs(jobs, executor="serial")
    return {job.scheme_name: report.result_for(job) for job in jobs}


class TestEveryScheme:
    @pytest.mark.parametrize("hop", sorted(HOPS))
    @pytest.mark.parametrize("scheme", SCHEMES.names())
    def test_real_result_survives_the_hop(self, scheme_results, scheme, hop):
        result = scheme_results[scheme]
        assert result.records and result.throughput.samples
        data = result.to_dict()
        rebuilt = SchemeResult.from_dict(HOPS[hop](data))
        assert dumps(rebuilt.to_dict()) == dumps(data)
        assert rebuilt.fct_statistics() == result.fct_statistics()
