"""Declarative, serialisable experiment scenarios.

:class:`ScenarioSpec` is the one scenario type: every axis of the
evaluation cross-product is a *string key* resolved through
:mod:`repro.registry` plus a plain dict of typed parameters, so a complete
experiment is one JSON document::

    {
      "name": "fattree-dc",
      "seed": 7,
      "sim_time_s": 10.0,
      "topology": "fattree",
      "topology_params": {"k": 4, "num_clients": 4},
      "workload": "datacenter",
      "workload_params": {"arrival_rate_per_s": 30.0}
    }

``ScenarioSpec.from_json`` / ``to_json`` round-trip losslessly, which makes
experiment files reproducible artefacts: check the JSON into a repo, run it
with ``python -m repro run scenario.json``, get the same numbers.

The spec builds its pieces through the registries
(:data:`~repro.registry.TOPOLOGIES`, :data:`~repro.registry.WORKLOADS`), so
a topology or workload registered by third-party code is immediately usable
here, in the sweeps and from the CLI.  A spec resolves its keys and
parameters when it is constructed, so a bad one fails there, not inside a
run.  See ``docs/SCENARIOS.md``.

The paper's five evaluation scenarios (Section X, Figures 7-18) are the
:data:`PAPER_SCENARIOS` table, keyed by the CLI's ``--scenario`` names:

* video traces, with and without control flows — ``X = 500 Mb/s``, ``K = 3``,
  20 block servers (Section X-A1),
* general datacenter traces — ``K = 1`` and ``K = 3`` (Section X-A2),
* Pareto sizes / Poisson arrivals — ``X = 200 Mb/s``, ``K = 3``, mean size
  500 KB, shape 1.6 (Section X-B).

Their default durations are shorter than the paper's 100 s so the whole
figure suite runs in minutes on a laptop.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields as dataclass_fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.core.rate_metric import ScdaParams
from repro.registry import RegistryError, TOPOLOGIES, WORKLOADS, _normalise


MBPS = 1e6


def _jsonify(value: Any) -> Any:
    """Coerce ``value`` to the plain JSON type system (tuples become lists).

    Applied to the parameter dicts at construction time so that equality is
    preserved across a ``to_dict -> json -> from_dict`` round-trip.
    """
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return value
    # numpy scalars and other number-likes
    for cast in (int, float):
        try:
            if cast(value) == value:
                return cast(value)
        except (TypeError, ValueError):
            pass
    return str(value)


@dataclass
class ScenarioSpec:
    """A complete experiment scenario, declaratively.

    Attributes
    ----------
    topology / topology_params:
        Registry key and parameters of the fabric
        (:data:`repro.registry.TOPOLOGIES`).
    workload / workload_params:
        Registry key and parameters of the trace generator
        (:data:`repro.registry.WORKLOADS`).  When the generator's config has
        a ``duration_s`` field and the params leave it unset, it defaults to
        ``sim_time_s``.
    scda_params:
        Overrides for :class:`~repro.core.rate_metric.ScdaParams`
        (``alpha``, ``beta``, ``drain_time_s``, ``min_rate_bps``, ...).
    hedera_params:
        Overrides for :class:`~repro.baselines.hedera.HederaConfig`
        (``elephant_threshold_bytes``, ``scheduling_interval_s``), used by
        schemes with ``use_hedera`` set.
    dynamics:
        A list of timed world-mutation events in their plain-dict form
        (``{"kind": "link-failure", "at_s": 1.0, ...}``; see
        :mod:`repro.dynamics`).  Empty means the historical static world.
        The list is part of the spec's serialised form, so it flows through
        :class:`~repro.exec.job.ExperimentJob` content keys, planners,
        every executor backend and the result store losslessly.
    """

    name: str = "scenario"
    seed: int = 1
    sim_time_s: float = 10.0
    #: extra time after the last arrival to let in-flight flows finish
    drain_time_s: float = 30.0
    topology: str = "tree"
    topology_params: Dict[str, Any] = field(default_factory=dict)
    workload: str = "pareto-poisson"
    workload_params: Dict[str, Any] = field(default_factory=dict)
    scda_params: Dict[str, Any] = field(default_factory=dict)
    hedera_params: Dict[str, Any] = field(default_factory=dict)
    #: timed world-mutation events (see :mod:`repro.dynamics`); empty = static
    dynamics: List[Dict[str, Any]] = field(default_factory=list)
    control_interval_s: float = 0.010
    setup_rtts: float = 1.5
    replication_enabled: bool = True
    #: name-node servers behind the FES (the paper's multi-NNS metadata plane)
    num_name_nodes: int = 3
    throughput_sample_interval_s: float = 1.0
    #: scale-down threshold R_scale used by the passive-content policy
    scale_down_threshold_bps: float = 50e6

    def __post_init__(self) -> None:
        # ``not x > 0`` / ``not x >= 0`` refuse NaN too.
        if not self.sim_time_s > 0:
            raise ValueError("sim_time_s must be positive")
        if not self.drain_time_s >= 0:
            raise ValueError("drain_time_s must be non-negative")
        if not self.control_interval_s > 0:
            raise ValueError("control_interval_s must be positive")
        if not self.throughput_sample_interval_s > 0:
            raise ValueError("throughput_sample_interval_s must be positive")
        if self.num_name_nodes < 1:
            raise ValueError("num_name_nodes must be >= 1")
        self.topology = _normalise(self.topology)
        self.workload = _normalise(self.workload)
        self.topology_params = _jsonify(dict(self.topology_params))
        self.workload_params = _jsonify(dict(self.workload_params))
        self.scda_params = _jsonify(dict(self.scda_params))
        self.hedera_params = _jsonify(dict(self.hedera_params))
        if isinstance(self.dynamics, Mapping) or isinstance(self.dynamics, str):
            raise ValueError("dynamics must be a list of event dicts")
        self.dynamics = _jsonify(list(self.dynamics))
        for item in self.dynamics:
            if not isinstance(item, Mapping) or "kind" not in item:
                raise ValueError(
                    f"each dynamics event must be a dict with a 'kind', got {item!r}"
                )
        # Resolve every key and parameter set through the same helpers the
        # builders use, so a bad spec fails here with the valid names rather
        # than inside a job.  The fabric is not built and the workload is not
        # generated: both cost set-up time.
        self._topology_config()
        self._workload_config()
        self.build_scda_params()
        self.build_hedera_config()
        self.build_dynamics()

    # -- paper scenarios ---------------------------------------------------------------
    @classmethod
    def _paper(
        cls,
        name: str,
        sim_time_s: float,
        seed: int,
        tree: Mapping[str, float],
        workload: str,
        workload_config: Any,
    ) -> "ScenarioSpec":
        """A paper scenario on the 20-server tree fabric with default SCDA params."""
        from repro.network.tree import TreeTopologyConfig

        topology = TreeTopologyConfig(
            num_agg=2, racks_per_agg=2, hosts_per_rack=5, num_clients=8, **tree
        )
        # τ lives on the spec itself, never inside scda_params.
        scda = asdict(ScdaParams())
        scda.pop("control_interval_s", None)
        return cls(
            name=name,
            seed=int(seed),
            sim_time_s=float(sim_time_s),
            topology="tree",
            topology_params=asdict(topology),
            workload=workload,
            workload_params=asdict(workload_config),
            scda_params=scda,
        )

    @classmethod
    def video(
        cls, sim_time_s: float = 30.0, seed: int = 1, include_control_flows: bool = True
    ) -> "ScenarioSpec":
        """Section X-A1: video traces with (Figures 7-9) or without (10-12) control flows."""
        from repro.workloads.video_traces import VideoTraceConfig

        return cls._paper(
            "video-with-control" if include_control_flows else "video-without-control",
            sim_time_s,
            seed,
            tree={
                "base_bandwidth_bps": 500 * MBPS,
                "bandwidth_factor": 3.0,
                "client_bandwidth_bps": 1500 * MBPS,
            },
            workload="video",
            workload_config=VideoTraceConfig(
                duration_s=float(sim_time_s),
                include_control_flows=include_control_flows,
                num_clients=8,
            ),
        )

    @classmethod
    def datacenter(
        cls, bandwidth_factor: float = 1.0, sim_time_s: float = 30.0, seed: int = 1
    ) -> "ScenarioSpec":
        """Section X-A2, Figures 13-16: general datacenter traces (K = 1 or 3)."""
        from repro.workloads.datacenter_traces import DatacenterTraceConfig

        return cls._paper(
            f"datacenter-k{bandwidth_factor:g}",
            sim_time_s,
            seed,
            tree={
                "base_bandwidth_bps": 500 * MBPS,
                "bandwidth_factor": bandwidth_factor,
                "client_bandwidth_bps": 1500 * MBPS,
            },
            workload="datacenter",
            workload_config=DatacenterTraceConfig(duration_s=float(sim_time_s), num_clients=8),
        )

    @classmethod
    def pareto_poisson(
        cls,
        sim_time_s: float = 6.0,
        seed: int = 1,
        arrival_rate_per_s: float = 60.0,
    ) -> "ScenarioSpec":
        """Section X-B, Figures 17-18: Pareto sizes, Poisson arrivals.

        The paper uses 200 flows/s over 100 s; the default here scales the
        rate down so the scenario finishes quickly — pass
        ``arrival_rate_per_s=200`` and ``sim_time_s=100`` for the full-size
        run.
        """
        from repro.workloads.pareto_poisson import ParetoPoissonConfig

        return cls._paper(
            "pareto-poisson",
            sim_time_s,
            seed,
            tree={
                "base_bandwidth_bps": 200 * MBPS,
                "bandwidth_factor": 3.0,
                "client_bandwidth_bps": 600 * MBPS,
            },
            workload="pareto-poisson",
            workload_config=ParetoPoissonConfig(
                duration_s=float(sim_time_s),
                arrival_rate_per_s=float(arrival_rate_per_s),
                mean_size_bytes=500 * 1024.0,
                pareto_shape=1.6,
                num_clients=8,
            ),
        )

    # -- derived -----------------------------------------------------------------------
    @property
    def total_time_s(self) -> float:
        """Simulated horizon including the drain period."""
        return self.sim_time_s + self.drain_time_s

    def with_overrides(self, **kwargs: Any) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)

    def with_topology(self, key: str, **params: Any) -> "ScenarioSpec":
        """Swap the fabric by registry key, resetting the topology params.

        Pass keyword arguments to set specific parameters of the new
        fabric's config; anything unset uses that fabric's defaults.
        """
        return self.with_overrides(topology=key, topology_params=dict(params))

    def with_workload(self, key: str, **params: Any) -> "ScenarioSpec":
        """Swap the workload by registry key, resetting the workload params."""
        return self.with_overrides(workload=key, workload_params=dict(params))

    def with_sim_time(self, sim_time_s: float) -> "ScenarioSpec":
        """Change the simulated duration, keeping the workload in sync.

        Unlike a bare ``with_overrides(sim_time_s=...)``, this also rewrites
        a ``duration_s`` already baked into :attr:`workload_params` (as the
        paper-scenario factories do), so the generated workload actually
        spans the new horizon.
        """
        params = dict(self.workload_params)
        if "duration_s" in params:
            params["duration_s"] = float(sim_time_s)
        return self.with_overrides(sim_time_s=float(sim_time_s), workload_params=params)

    # -- registry-backed builders ------------------------------------------------------
    def _topology_config(self):
        """The registry entry and config of :attr:`topology` (nothing built)."""
        entry = TOPOLOGIES.get(self.topology)
        return entry, entry.make_config(self.topology_params)

    def _workload_config(self):
        """The registry entry and config of :attr:`workload` (nothing generated)."""
        entry = WORKLOADS.get(self.workload)
        params = dict(self.workload_params)
        if entry.config_cls is not None and "duration_s" not in params:
            if any(f.name == "duration_s" for f in dataclass_fields(entry.config_cls)):
                params["duration_s"] = self.sim_time_s
        return entry, entry.make_config(params)

    def build_topology(self):
        """Instantiate the fabric named by :attr:`topology`."""
        entry, config = self._topology_config()
        return entry.builder(config)

    def build_workload(self):
        """Generate the workload named by :attr:`workload` (keyed by the seed)."""
        entry, config = self._workload_config()
        return entry.builder(config, seed=self.seed)

    def build_scda_params(self) -> ScdaParams:
        """The SCDA rate-metric constants, with the spec's control interval."""
        params = dict(self.scda_params)
        if "control_interval_s" in params:
            # The fabric's allocation rounds use the spec-level value; a
            # second copy here would silently desynchronise the two planes.
            raise RegistryError(
                "set the control interval via ScenarioSpec.control_interval_s, "
                "not scda_params['control_interval_s']"
            )
        params["control_interval_s"] = self.control_interval_s
        try:
            return ScdaParams(**params)
        except (TypeError, ValueError) as exc:
            valid = sorted(f.name for f in dataclass_fields(ScdaParams))
            raise RegistryError(
                f"invalid scda_params: {exc}; valid fields: {valid}"
            ) from exc

    def build_dynamics(self):
        """The :class:`~repro.dynamics.DynamicsScript` named by :attr:`dynamics`.

        Events resolve through the :data:`~repro.registry.DYNAMICS` registry
        (unknown kinds and bad parameters fail with the valid names).  An
        empty list builds a no-op script: the historical static world.
        """
        from repro.dynamics import DynamicsScript

        return DynamicsScript.from_list(self.dynamics)

    def with_dynamics(self, events) -> "ScenarioSpec":
        """A copy of this spec with the dynamics script replaced.

        Accepts a :class:`~repro.dynamics.DynamicsScript`, a list of event
        objects, or a list of plain event dicts.
        """
        from repro.dynamics import DynamicsEvent, DynamicsScript
        from repro.dynamics.script import event_to_dict

        if isinstance(events, DynamicsScript):
            payload = events.to_list()
        else:
            payload = [
                event_to_dict(e) if isinstance(e, DynamicsEvent) else dict(e)
                for e in events
            ]
        return self.with_overrides(dynamics=payload)

    def build_hedera_config(self):
        """The Hedera scheduler config for schemes with ``use_hedera`` set.

        Defaults to an 8 MB elephant threshold and a 1 s scheduling interval
        (the laptop-scale settings of the shipped examples; the NSDI paper
        discusses 100 MB), overridable through :attr:`hedera_params`.
        """
        from repro.baselines.hedera import HederaConfig

        params = {
            "elephant_threshold_bytes": 8 * 1024.0 * 1024.0,
            "scheduling_interval_s": 1.0,
            **self.hedera_params,
        }
        try:
            return HederaConfig(**params)
        except (TypeError, ValueError) as exc:
            valid = sorted(f.name for f in dataclass_fields(HederaConfig))
            raise RegistryError(
                f"invalid hedera_params: {exc}; valid fields: {valid}"
            ) from exc

    # -- serialisation -----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-safe dict holding every field of the spec."""
        return {
            f.name: _jsonify(getattr(self, f.name)) for f in dataclass_fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        valid = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s) {unknown}; valid fields: {sorted(valid)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scenario file must hold a JSON object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path`` as JSON; returns the path."""
        out = Path(path)
        out.write_text(self.to_json() + "\n")
        return out

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Read a spec from a JSON file produced by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def as_spec(obj: Any) -> ScenarioSpec:
    """Coerce a scenario-like object to a :class:`ScenarioSpec`.

    Accepts a spec (returned as-is) or a mapping in
    :meth:`ScenarioSpec.to_dict` form.
    """
    if isinstance(obj, ScenarioSpec):
        return obj
    if isinstance(obj, Mapping):
        return ScenarioSpec.from_dict(obj)
    raise TypeError(
        f"cannot interpret {type(obj).__name__!r} as a scenario; "
        "pass a ScenarioSpec or a spec dict"
    )


class PaperScenario(NamedTuple):
    """One of the paper's evaluation scenarios (an entry of :data:`PAPER_SCENARIOS`)."""

    #: ``build(sim_time_s=..., seed=...)`` -> the scenario's spec
    build: Callable[..., ScenarioSpec]
    #: duration of a figure run that is given no scenario
    sim_time_s: float
    #: the figures of Section X this scenario reproduces
    figures: Tuple[str, ...]


#: The paper's five evaluation scenarios, keyed by the CLI's ``--scenario``
#: names.  The one place those names map to constructors: the CLI, the
#: per-figure defaults of :mod:`repro.experiments.figures` and the
#: benchmarks all read it.
PAPER_SCENARIOS: Dict[str, PaperScenario] = {
    "video": PaperScenario(ScenarioSpec.video, 30.0, ("fig07", "fig08", "fig09")),
    "video-nocontrol": PaperScenario(
        partial(ScenarioSpec.video, include_control_flows=False),
        30.0,
        ("fig10", "fig11", "fig12"),
    ),
    "datacenter-k1": PaperScenario(
        partial(ScenarioSpec.datacenter, 1.0), 30.0, ("fig13", "fig14")
    ),
    "datacenter-k3": PaperScenario(
        partial(ScenarioSpec.datacenter, 3.0), 30.0, ("fig15", "fig16")
    ),
    "pareto": PaperScenario(ScenarioSpec.pareto_poisson, 20.0, ("fig17", "fig18")),
}


def paper_scenario(
    name: str, sim_time_s: Optional[float] = None, seed: int = 1
) -> ScenarioSpec:
    """The paper scenario called ``name`` (a :data:`PAPER_SCENARIOS` key).

    ``sim_time_s=None`` uses the scenario's figure default duration.
    """
    if name not in PAPER_SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {tuple(PAPER_SCENARIOS)}"
        )
    entry = PAPER_SCENARIOS[name]
    return entry.build(
        sim_time_s=entry.sim_time_s if sim_time_s is None else sim_time_s, seed=seed
    )
