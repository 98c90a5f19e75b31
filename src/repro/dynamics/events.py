"""Declarative, timed world-mutation events.

Every event is a plain dataclass registered in the
:data:`~repro.registry.DYNAMICS` registry, so a complete fault/churn
scenario is one JSON list::

    [
      {"kind": "link-failure", "at_s": 1.0, "select": "switch-uplink", "index": 0},
      {"kind": "link-recovery", "at_s": 3.0, "select": "switch-uplink", "index": 0},
      {"kind": "block-server-churn", "at_s": 2.0, "index": 1, "rejoin_after_s": 4.0}
    ]

Events mutate the running stack through the layer-specific APIs this PR
threads them into: :class:`~repro.network.fabric.FabricSimulator`'s
``fail_link``/``restore_link``/``set_link_capacity`` and
:class:`~repro.cluster.cluster.StorageCluster`'s
``deactivate_server``/``reactivate_server``.  All randomness (arrival jitter,
surge traffic) draws from streams derived with pinned
:func:`~repro.sim.random.derive_seed` namespaces —
``derive_seed(seed, "dynamics", f"{index}:{kind}")`` — so a scripted run is
bit-identical on every executor backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional

from repro.network.flow import FlowKind
from repro.network.topology import Link, Topology
from repro.sim.random import RandomStreams, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dynamics.script import DynamicsRuntime


class DynamicsError(ValueError):
    """An event is malformed or cannot resolve its target at run time."""


@dataclass
class DynamicsEvent:
    """Base class: one scheduled mutation of the simulated world.

    Attributes
    ----------
    at_s:
        Simulated time at which the event fires.
    jitter_s:
        Optional uniform jitter added to ``at_s``; the draw comes from a
        stream derived from the run seed and the event's *identity* (its
        index and kind), never from execution order.
    """

    at_s: float = 0.0
    jitter_s: float = 0.0

    kind: ClassVar[str] = "base"

    def __post_init__(self) -> None:
        # ``not x >= 0`` and ``not x > 0`` refuse NaN too.
        if not self.at_s >= 0:
            raise DynamicsError(f"{self.kind}: at_s must be non-negative, got {self.at_s}")
        if not self.jitter_s >= 0:
            raise DynamicsError(
                f"{self.kind}: jitter_s must be non-negative, got {self.jitter_s}"
            )

    def fire_time(self, seed: int, index: int) -> float:
        """The event's actual firing time under ``seed`` (jitter resolved).

        The jitter stream is namespaced by the event's identity —
        ``derive_seed(seed, "dynamics", "jitter", f"{index}:{kind}")`` — so
        the value is a pure function of (seed, script position), pinned
        across processes and platforms.
        """
        if self.jitter_s <= 0:
            return self.at_s
        streams = RandomStreams(
            derive_seed(int(seed), "dynamics", "jitter", f"{index}:{self.kind}")
        )
        return self.at_s + streams.uniform("jitter", 0.0, self.jitter_s)

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        """Mutate the running stack; called by the simulator at fire time."""
        raise NotImplementedError


@dataclass
class _LinkEvent(DynamicsEvent):
    """Shared link-selection fields of the link-targeting events.

    Exactly one selection mode must be set:

    * ``link_id`` — an explicit directed-link id;
    * ``src`` + ``dst`` — the directed link between two named nodes
      (both directions when ``duplex``);
    * ``select`` + ``index`` — a topology-agnostic selector:
      ``"host-uplink"`` picks the ``index``-th host's access links,
      ``"switch-uplink"`` the ``index``-th switch's first uplink (e.g. a
      leaf→spine link), without knowing the builder's node names.
    """

    link_id: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    select: Optional[str] = None
    index: int = 0
    duplex: bool = True

    _SELECTORS: ClassVar = ("host-uplink", "switch-uplink")

    def __post_init__(self) -> None:
        super().__post_init__()
        modes = [
            self.link_id is not None,
            self.src is not None or self.dst is not None,
            self.select is not None,
        ]
        if sum(modes) != 1:
            raise DynamicsError(
                f"{self.kind}: set exactly one of link_id, src+dst, or select"
            )
        if (self.src is None) != (self.dst is None):
            raise DynamicsError(f"{self.kind}: src and dst must be given together")
        if self.select is not None and self.select not in self._SELECTORS:
            raise DynamicsError(
                f"{self.kind}: unknown selector {self.select!r} "
                f"(available: {', '.join(self._SELECTORS)})"
            )
        if self.index < 0:
            raise DynamicsError(f"{self.kind}: index must be non-negative")

    def resolve_links(self, topology: Topology) -> List[Link]:
        """The directed links this event targets in ``topology``."""
        if self.link_id is not None:
            links = [l for l in topology.links if l.link_id == self.link_id]
            if not links:
                raise DynamicsError(f"{self.kind}: no link with id {self.link_id!r}")
            return links
        if self.src is not None and self.dst is not None:
            try:
                a, b = topology.node(self.src), topology.node(self.dst)
                links = [topology.find_link(a, b)]
            except KeyError as exc:
                raise DynamicsError(
                    f"{self.kind}: no link {self.src!r} -> {self.dst!r} "
                    f"in this topology ({exc})"
                ) from None
            if self.duplex:
                try:
                    links.append(topology.find_link(b, a))
                except KeyError:
                    pass
            return links
        if self.select == "host-uplink":
            pool = topology.hosts()
        else:
            # Only switches that have an uplink qualify (top-tier spines and
            # cores do not), so the index is stable across fabric families.
            pool = [s for s in topology.switches() if topology.uplink_of(s) is not None]
        if not pool:
            raise DynamicsError(f"{self.kind}: topology has no {self.select} candidates")
        node = pool[self.index % len(pool)]
        uplink = topology.uplink_of(node)
        if uplink is None:
            raise DynamicsError(
                f"{self.kind}: {node.node_id} has no uplink to select"
            )
        links = [uplink]
        if self.duplex:
            try:
                links.append(topology.find_link(uplink.dst, uplink.src))
            except KeyError:
                pass
        return links


@dataclass
class LinkFailureEvent(_LinkEvent):
    """Take the selected link(s) down; stranded flows reroute or abort."""

    kind: ClassVar[str] = "link-failure"

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        for link in self.resolve_links(runtime.topology):
            runtime.fabric.fail_link(link)


@dataclass
class LinkRecoveryEvent(_LinkEvent):
    """Bring the selected link(s) back up; new flows see them again."""

    kind: ClassVar[str] = "link-recovery"

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        for link in self.resolve_links(runtime.topology):
            runtime.fabric.restore_link(link)


@dataclass
class CapacityDegradationEvent(_LinkEvent):
    """Scale the selected link(s) to ``factor`` × nominal capacity.

    With ``duration_s`` set, nominal capacity is restored that many seconds
    after the degradation takes effect (a brown-out); without it the
    degradation persists until another event changes the capacity again.
    """

    factor: float = 0.5
    duration_s: Optional[float] = None

    kind: ClassVar[str] = "capacity-degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        # ``not x > 0``, so a NaN (which JSON scripts can carry) is refused too.
        if not self.factor > 0:
            raise DynamicsError(f"{self.kind}: factor must be positive")
        if self.duration_s is not None and not self.duration_s > 0:
            raise DynamicsError(f"{self.kind}: duration_s must be positive when set")

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        links = self.resolve_links(runtime.topology)
        degraded = [
            (link, link.nominal_capacity_bps * self.factor) for link in links
        ]
        for link, capacity in degraded:
            runtime.fabric.set_link_capacity(link, capacity)
        if self.duration_s is not None:
            runtime.sim.call_in(self.duration_s, self._restore, runtime, degraded)

    @staticmethod
    def _restore(runtime: "DynamicsRuntime", degraded) -> None:
        for link, capacity in degraded:
            # Restore only what this event set: if another event changed the
            # capacity in the meantime, its intent wins over our expiry.
            if link.capacity_bps == capacity:
                runtime.fabric.set_link_capacity(link, link.nominal_capacity_bps)


@dataclass
class BlockServerChurnEvent(DynamicsEvent):
    """A block server leaves the cluster (and optionally rejoins later).

    On departure the cluster aborts transfers touching the server, removes
    its replicas from the name-node metadata and re-replicates content left
    under its replica target (see
    :meth:`~repro.cluster.cluster.StorageCluster.deactivate_server`).  The
    server is named explicitly (``server``) or picked topology-agnostically
    as the ``index``-th block server.
    """

    server: Optional[str] = None
    index: int = 0
    action: str = "leave"
    rejoin_after_s: Optional[float] = None

    kind: ClassVar[str] = "block-server-churn"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.action not in ("leave", "rejoin"):
            raise DynamicsError(
                f"{self.kind}: action must be 'leave' or 'rejoin', got {self.action!r}"
            )
        if self.rejoin_after_s is not None:
            if self.action != "leave":
                raise DynamicsError(f"{self.kind}: rejoin_after_s requires action='leave'")
            if not self.rejoin_after_s > 0:
                raise DynamicsError(f"{self.kind}: rejoin_after_s must be positive")
        if self.index < 0:
            raise DynamicsError(f"{self.kind}: index must be non-negative")

    def _server_id(self, runtime: "DynamicsRuntime") -> str:
        cluster = runtime.cluster
        if cluster is None:
            raise DynamicsError(f"{self.kind}: the runtime has no storage cluster")
        if self.server is not None:
            if self.server not in cluster.block_servers:
                raise DynamicsError(f"{self.kind}: unknown block server {self.server!r}")
            return self.server
        ids = cluster.all_server_ids()
        return ids[self.index % len(ids)]

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        server_id = self._server_id(runtime)
        cluster = runtime.cluster
        if self.action == "rejoin":
            cluster.reactivate_server(server_id)
            return
        cluster.deactivate_server(server_id)
        if self.rejoin_after_s is not None:
            runtime.sim.call_in(
                self.rejoin_after_s, cluster.reactivate_server, server_id
            )


@dataclass
class WorkloadSurgeEvent(DynamicsEvent):
    """Inject a burst of extra write requests on top of the base workload.

    Arrivals are Poisson at ``arrival_rate_per_s`` over ``duration_s`` with
    exponentially distributed sizes around ``mean_size_bytes``, issued from
    uniformly drawn clients.  All draws come from a stream namespaced by the
    run seed and the event's identity, so the surge is identical across
    executor backends.

    ``multiplicity`` > 1 makes every surge request an aggregate flow of that
    many sessions — a flash crowd of 50k viewers is one event with
    ``arrival_rate_per_s`` flow objects per second, each standing in for
    ``multiplicity`` concurrent sessions.  ``tenant`` tags the surge traffic
    for per-tenant metrics.
    """

    duration_s: float = 1.0
    arrival_rate_per_s: float = 50.0
    mean_size_bytes: float = 500 * 1024.0
    flow_kind: str = "data"
    multiplicity: int = 1
    tenant: str = ""

    kind: ClassVar[str] = "workload-surge"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.duration_s > 0:
            raise DynamicsError(f"{self.kind}: duration_s must be positive")
        if self.arrival_rate_per_s <= 0:
            raise DynamicsError(f"{self.kind}: arrival_rate_per_s must be positive")
        if self.mean_size_bytes <= 0:
            raise DynamicsError(f"{self.kind}: mean_size_bytes must be positive")
        if int(self.multiplicity) != self.multiplicity or self.multiplicity < 1:
            raise DynamicsError(
                f"{self.kind}: multiplicity must be a positive integer"
            )
        try:
            FlowKind(self.flow_kind)
        except ValueError:
            raise DynamicsError(
                f"{self.kind}: unknown flow_kind {self.flow_kind!r}"
            ) from None

    def apply(self, runtime: "DynamicsRuntime", index: int) -> None:
        if runtime.issue_write is None:
            raise DynamicsError(
                f"{self.kind}: the runtime cannot issue workload requests"
            )
        streams = RandomStreams(
            derive_seed(int(runtime.seed), "dynamics", f"{index}:{self.kind}")
        )
        num_clients = max(1, len(runtime.topology.clients()))
        kind = FlowKind(self.flow_kind)
        offset = streams.exponential("arrivals", 1.0 / self.arrival_rate_per_s)
        while offset < self.duration_s:
            size = max(1.0, streams.exponential("sizes", self.mean_size_bytes))
            client_index = streams.integers("clients", 0, num_clients)
            if self.multiplicity == 1 and not self.tenant:
                # Historical 3-argument call, so pre-aggregate issue_write
                # callables (and their byte-identical results) keep working.
                runtime.sim.call_in(
                    offset, runtime.issue_write, client_index, size, kind
                )
            else:
                runtime.sim.call_in(
                    offset,
                    runtime.issue_write,
                    client_index,
                    size,
                    kind,
                    self.multiplicity,
                    self.tenant,
                )
            offset += streams.exponential("arrivals", 1.0 / self.arrival_rate_per_s)


#: Built-in event classes in registration order (used by the catalog).
BUILTIN_EVENTS = (
    LinkFailureEvent,
    LinkRecoveryEvent,
    CapacityDegradationEvent,
    BlockServerChurnEvent,
    WorkloadSurgeEvent,
)
