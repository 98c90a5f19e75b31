"""Builds and runs a full stack for one scheme and one scenario.

Everything here resolves through the plugin registries
(:mod:`repro.registry`): the scenario's topology and workload are string
keys on the :class:`~repro.experiments.spec.ScenarioSpec`, schemes may be
given as registry keys (``"scda"``, ``"rand-tcp"``, ``"hedera"``, ...) or as
:class:`~repro.baselines.schemes.SchemeSpec` objects, and placements are
built by the placement registry.  :func:`run_scenario` is the declarative
entry point; :func:`run_comparison` and :func:`run_scheme` remain for
callers that hold scheme objects.  All of them also accept a spec dict.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Sequence, Union

from repro.baselines.hedera import HederaScheduler
from repro.baselines.schemes import RAND_TCP, SCDA_SCHEME, SchemeSpec
from repro.baselines.vlb import VlbRouter
from repro.cluster.cluster import StorageCluster, StorageClusterConfig
from repro.cluster.content import Content
from repro.cluster.placement import PlacementContext, PlacementPolicy
from repro.cluster.replication import ReplicationConfig
from repro.core.controller import ScdaController, ScdaControllerConfig
from repro.experiments.spec import ScenarioSpec, as_spec
from repro.metrics.collector import MetricsCollector
from repro.metrics.comparison import ComparisonResult, SchemeResult
from repro.metrics.tenancy import per_tenant_extras
from repro.network.fabric import FabricConfig, FabricSimulator
from repro.network.flow import FlowKind
from repro.network.routing import EcmpRouter, HashingEcmpRouter, Router
from repro.network.topology import Topology
from repro.network.transport import (
    IdealMaxMinTransport,
    ScdaTransport,
    TcpTransport,
)
from repro.registry import PLACEMENTS, SCHEMES
from repro.sim.engine import Simulator
from repro.sim.random import derive_seed
from repro.workloads.traces import FlowRequest, Operation, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.job import ExperimentJob

#: A scenario in either accepted form: declarative spec or spec dict.
ScenarioLike = Union[ScenarioSpec, Mapping[str, Any]]

#: A scheme as a registry key or a full spec object.
SchemeLike = Union[str, SchemeSpec]


@dataclass
class SchemeStack:
    """Everything built for one scheme run."""

    spec: SchemeSpec
    scenario: ScenarioSpec
    sim: Simulator
    topology: Topology
    fabric: FabricSimulator
    cluster: StorageCluster
    collector: MetricsCollector
    controller: Optional[ScdaController] = None
    placement: Optional[PlacementPolicy] = None
    router: Optional[Router] = None
    hedera: Optional[HederaScheduler] = None
    #: Per-stack content ids: numbering restarts at 0 for every run so the
    #: generated content keys (which the FES hashes across name nodes) do not
    #: depend on process history or on concurrently running jobs.
    content_ids: Iterator[int] = field(default_factory=itertools.count)


def resolve_scheme(scheme: SchemeLike) -> SchemeSpec:
    """A :class:`SchemeSpec` from a registry key (or pass a spec through)."""
    if isinstance(scheme, SchemeSpec):
        return scheme
    return SCHEMES.build(scheme)


def generate_workload(scenario: ScenarioLike) -> Workload:
    """The scenario's workload (identical for every scheme, keyed by the seed).

    The generator is resolved through the workload registry, so an unknown
    kind fails with a message listing the registered names.
    """
    return as_spec(scenario).build_workload()


def _build_router(
    scheme: SchemeSpec, scenario: ScenarioSpec, topology: Topology
) -> Router:
    """Path selection for this (scheme, scenario) pair.

    ``auto`` keeps the historical behaviour: plain shortest path on the
    single-path tree, equal-cost routing on multi-path fabrics.
    """
    routing = scheme.routing
    if routing == "auto":
        routing = "shortest" if scenario.topology == "tree" else "ecmp-plain"
    if routing == "shortest":
        return Router(topology)
    if routing == "ecmp-plain":
        return EcmpRouter(topology)
    if routing == "ecmp":
        return HashingEcmpRouter(topology)
    if routing == "vlb":
        return VlbRouter(topology, seed=derive_seed(scenario.seed, f"vlb:{scheme.name}"))
    raise ValueError(f"unknown routing {routing!r}")  # pragma: no cover - SchemeSpec validates


def build_stack(scenario: ScenarioLike, scheme: SchemeLike) -> SchemeStack:
    """Instantiate the simulator, network, control plane and cluster for a scheme."""
    spec = as_spec(scenario)
    scheme = resolve_scheme(scheme)
    sim = Simulator()
    topology = spec.build_topology()
    router = _build_router(scheme, spec, topology)

    scda_params = spec.build_scda_params()

    controller: Optional[ScdaController] = None
    if scheme.needs_controller:
        controller = ScdaController(
            sim,
            topology,
            ScdaControllerConfig(
                params=scda_params,
                scale_down_threshold_bps=spec.scale_down_threshold_bps,
                power_aware_selection=scheme.power_aware,
                use_simplified_metric=scheme.simplified_metric,
            ),
        )

    if scheme.transport == "tcp":
        transport = TcpTransport()
    elif scheme.transport == "scda":
        if controller is None:  # pragma: no cover - defensive, needs_controller covers it
            raise ValueError("SCDA transport requires a controller")
        transport = ScdaTransport(controller)
    elif scheme.transport == "ideal":
        transport = IdealMaxMinTransport()
    else:  # pragma: no cover - SchemeSpec validates
        raise ValueError(f"unknown transport {scheme.transport!r}")

    fabric = FabricSimulator(
        sim,
        topology,
        transport,
        router=router,
        config=FabricConfig(control_interval_s=spec.control_interval_s),
    )
    if controller is not None:
        controller.attach_fabric(fabric)

    placement = PLACEMENTS.build(
        scheme.placement,
        PlacementContext(
            seed=derive_seed(spec.seed, f"placement:{scheme.name}"),
            fabric=fabric,
            controller=controller,
        ),
    )

    cluster = StorageCluster(
        sim,
        topology,
        fabric,
        placement,
        config=StorageClusterConfig(
            num_name_nodes=spec.num_name_nodes,
            setup_rtts=spec.setup_rtts,
            replication=ReplicationConfig(enabled=spec.replication_enabled),
        ),
    )

    hedera: Optional[HederaScheduler] = None
    if scheme.use_hedera:
        hedera_router = router if isinstance(router, EcmpRouter) else EcmpRouter(topology)
        hedera = HederaScheduler(fabric, hedera_router, spec.build_hedera_config())
        hedera.start()

    collector = MetricsCollector(
        fabric,
        sample_interval_s=spec.throughput_sample_interval_s,
        record_kinds=(FlowKind.CONTROL, FlowKind.VIDEO, FlowKind.DATA),
    )

    return SchemeStack(
        spec=scheme,
        scenario=spec,
        sim=sim,
        topology=topology,
        fabric=fabric,
        cluster=cluster,
        collector=collector,
        controller=controller,
        placement=placement,
        router=router,
        hedera=hedera,
    )


def _issue_request(stack: SchemeStack, request: FlowRequest, clients) -> None:
    """Submit one workload request to the cluster at its arrival time."""
    client = clients[request.client_index % len(clients)]
    cluster = stack.cluster
    if request.operation is Operation.READ and request.content_ref:
        nns = cluster.name_node_for_content(request.content_ref)
        if nns.knows(request.content_ref):
            cluster.read(
                client,
                request.content_ref,
                flow_kind=request.flow_kind,
                multiplicity=request.multiplicity,
                tenant=request.tenant,
            )
            return
    content = Content(
        content_id=f"{request.flow_kind.value}-{next(stack.content_ids)}",
        size_bytes=request.size_bytes,
        declared_class=request.content_class,
        owner=client.node_id,
    )
    cluster.write(
        client,
        content,
        flow_kind=request.flow_kind,
        multiplicity=request.multiplicity,
        tenant=request.tenant,
    )


def _arm_dynamics(dynamics, stack: SchemeStack, clients) -> None:
    """Schedule the scenario's dynamics script against this stack.

    Workload-surge events issue extra writes through the same content-id
    counter as the base workload, so surge traffic is first-class cluster
    traffic (FES → NNS → placement → data flow) rather than raw fabric flows.
    """
    from repro.dynamics import DynamicsRuntime
    from repro.network.flow import FlowKind as _FlowKind

    def issue_surge_write(
        client_index: int,
        size_bytes: float,
        kind: _FlowKind,
        multiplicity: int = 1,
        tenant: str = "",
    ) -> None:
        client = clients[client_index % len(clients)]
        content = Content(
            content_id=f"surge-{next(stack.content_ids)}",
            size_bytes=size_bytes,
            owner=client.node_id,
        )
        stack.cluster.write(
            client, content, flow_kind=kind, multiplicity=multiplicity, tenant=tenant
        )

    runtime = DynamicsRuntime(
        sim=stack.sim,
        topology=stack.topology,
        fabric=stack.fabric,
        cluster=stack.cluster,
        seed=stack.scenario.seed,
        issue_write=issue_surge_write,
    )
    dynamics.arm(runtime)


def run_scheme(
    scenario: ScenarioLike, scheme: SchemeLike, workload: Optional[Workload] = None
) -> SchemeResult:
    """Run one scheme over the scenario and return its measurements."""
    spec = as_spec(scenario)
    stack = build_stack(spec, scheme)
    if workload is None:
        workload = generate_workload(spec)

    clients = stack.topology.clients()
    if not clients:
        raise ValueError("scenario topology has no client nodes")

    sim = stack.sim
    for request in workload:
        sim.call_at(request.arrival_time_s, _issue_request, stack, request, clients)

    dynamics = spec.build_dynamics()
    if not dynamics.is_noop:
        _arm_dynamics(dynamics, stack, clients)

    stack.collector.start_sampling()
    wall_start = time.perf_counter()
    sim.run(until=spec.total_time_s)
    wall_clock = time.perf_counter() - wall_start
    # Full detach (not just stop_sampling): the stack may outlive this call
    # in a long-lived worker, and a detached collector cannot record stray
    # completions from later activity on the same fabric.
    stack.collector.detach()
    if stack.hedera is not None:
        stack.hedera.stop()

    sla_violations = (
        stack.controller.sla_monitor.count if stack.controller is not None else 0
    )
    nns_writes = [nns.write_requests for nns in stack.cluster.name_nodes.values()]
    extras = {
        "requests_issued": float(len(workload)),
        "requests_completed": float(len(stack.cluster.completed_requests())),
        "flows_started": float(stack.collector.flows_started),
        "events_processed": float(sim.events_processed),
        # Metadata-plane load: lets scalability studies compare NNS counts
        # from serialised results alone, without reaching into the stack.
        "nns_write_requests_total": float(sum(nns_writes)),
        "nns_write_requests_max": float(max(nns_writes)) if nns_writes else 0.0,
        # Dynamics accounting — all zero on a static world, so results with
        # and without an (empty) dynamics script stay bit-identical.
        "links_failed": float(stack.fabric.link_failures),
        "links_restored": float(stack.fabric.link_recoveries),
        "capacity_changes": float(stack.fabric.capacity_changes),
        "flows_rerouted_on_failure": float(stack.fabric.flows_rerouted_on_failure),
        "flows_aborted_on_failure": float(stack.fabric.flows_aborted_on_failure),
        "servers_departed": float(stack.cluster.servers_departed),
        "servers_rejoined": float(stack.cluster.servers_rejoined),
        "requests_disrupted": float(stack.cluster.requests_disrupted),
        "re_replications_planned": float(stack.cluster.replication.re_replications_planned),
        "re_replications_completed": float(stack.cluster.replication.re_replications_completed),
    }
    if stack.hedera is not None:
        extras["hedera_reroutes"] = float(stack.hedera.reroutes)
    if stack.collector.sessions_started != stack.collector.flows_started:
        # Only aggregate runs carry session accounting, so discrete runs
        # keep their exact historical payload.
        extras["sessions_started"] = float(stack.collector.sessions_started)
        extras["sessions_completed"] = float(
            sum(r.multiplicity for r in stack.collector.records)
        )
    extras.update(per_tenant_extras(stack.collector.records))
    for key, value in stack.collector.kernel_extras().items():
        extras[f"kernel_{key}"] = value
    result = SchemeResult(
        scheme=stack.spec.name,
        records=stack.collector.records,
        throughput=stack.collector.throughput,
        availability=stack.collector.availability,
        sla_violations=sla_violations,
        wall_clock_s=wall_clock,
        extras=extras,
    )
    return result


def run_job(job: "ExperimentJob") -> SchemeResult:
    """Pure function from one :class:`~repro.exec.job.ExperimentJob` to its result.

    This is the only thing executor workers call: everything the run needs is
    (re)built from the job's serialisable spec — simulator, topology, fabric,
    cluster, workload — so the function is safe to invoke from a spawn-started
    process or the current interpreter, and returns a bit-identical
    :class:`~repro.metrics.comparison.SchemeResult` in each case (modulo wall
    clock).
    """
    spec = job.resolved_spec()
    return run_scheme(spec, job.resolved_scheme())


def run_comparison(
    scenario: ScenarioLike,
    candidate: SchemeLike = SCDA_SCHEME,
    baseline: SchemeLike = RAND_TCP,
    workload: Optional[Workload] = None,
) -> ComparisonResult:
    """Run the candidate and the baseline on the *same* workload and compare."""
    spec = as_spec(scenario)
    if workload is None:
        workload = generate_workload(spec)
    candidate_result = run_scheme(spec, candidate, workload)
    baseline_result = run_scheme(spec, baseline, workload)
    return ComparisonResult(
        scenario=spec.name, candidate=candidate_result, baseline=baseline_result
    )


def run_scenario(
    scenario: ScenarioLike,
    schemes: Sequence[SchemeLike] = ("scda", "rand-tcp"),
    workload: Optional[Workload] = None,
) -> ComparisonResult:
    """Declarative entry point: run ``schemes[0]`` vs ``schemes[1]`` on a scenario.

    ``scenario`` may be a :class:`~repro.experiments.spec.ScenarioSpec` or a
    spec dict (e.g. parsed from a scenario JSON file); schemes may be registry keys or
    :class:`~repro.baselines.schemes.SchemeSpec` objects.  Both schemes see
    the identical workload.  For a single scheme use :func:`run_scheme`.
    """
    resolved = [resolve_scheme(s) for s in schemes]
    if len(resolved) != 2:
        raise ValueError(
            f"run_scenario compares exactly two schemes (candidate, baseline); "
            f"got {len(resolved)} — use run_scheme for single runs"
        )
    return run_comparison(
        scenario, candidate=resolved[0], baseline=resolved[1], workload=workload
    )
