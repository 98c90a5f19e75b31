"""The SCDA controller: glue between the RM/RA tree, the transport and the NNS.

The controller owns

* the :class:`~repro.core.maxmin.ScdaTree` (RMs + RAs + per-link calculators),
* the :class:`~repro.core.priority.PriorityManager` (equation 6 weights),
* the :class:`~repro.core.reservation.ReservationRegistry` (Section IV-C),
* the :class:`~repro.core.sla.SlaMonitor` (Section IV-A), and
* the :class:`~repro.core.server_selection.ServerSelector` (Section VII).

It implements the :class:`~repro.network.transport.scda.RateProvider`
interface consumed by the SCDA transport — per-flow allocations are the
minimum of the advertised rates of the links along the flow's path (the
``min(R_u, R_e2e, R_d)`` of Section IV) — and the server-selection interface
consumed by the name nodes.

The RM/RA computation runs every control interval τ.  The controller is
*lazy*: the round is (re)computed when allocations or selection metrics are
requested and the previous round is at least τ old, which is equivalent to a
periodic recomputation while flows are active but costs nothing while the
cloud is idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.maxmin import HostRateMetrics, ScdaTree
from repro.core.monitors import OtherResourceModel
from repro.core.priority import PriorityManager, WeightPolicy
from repro.core.rate_metric import ScdaParams
from repro.core.reservation import ReservationRegistry
from repro.core.server_selection import SelectionMetrics, ServerSelector
from repro.core.sla import MitigationAction, SlaMonitor
from repro.network.flow import Flow
from repro.network.incidence import IncidenceCache
from repro.network.topology import Link, Node, Topology
from repro.sim.engine import Simulator


@dataclass
class ScdaControllerConfig:
    """Controller tunables."""

    params: ScdaParams = field(default_factory=ScdaParams)
    scale_down_threshold_bps: float = 50e6
    power_aware_selection: bool = False
    use_simplified_metric: bool = False
    sla_mitigation: MitigationAction = MitigationAction.NONE
    sla_bandwidth_boost: float = 1.25
    selection_level: Optional[int] = None  #: None -> whole datacenter (hmax)
    #: How long a just-made placement decision keeps discounting a server's
    #: advertised rates.  The RM/RA rates only reflect a new flow once it
    #: actually starts sending (after the connection-setup exchange of
    #: Section VIII), so without this NNS-side bookkeeping every request
    #: arriving within the setup window would herd onto the same "idle" best
    #: server.  Set to 0 to disable (pure paper behaviour).
    placement_hint_ttl_s: float = 0.5


class ScdaController:
    """SCDA's distributed control plane, consolidated into one object.

    The paper notes the RMs and RAs are software components that "can be
    consolidated in a few powerful servers close to each other to minimize
    communication overheads"; this class is that consolidation.  The message
    exchanges of Figure 2 still happen explicitly inside
    :meth:`ScdaTree.run_round`, so per-component behaviour remains testable.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[ScdaControllerConfig] = None,
        other_resources: Optional[OtherResourceModel] = None,
        weight_policy: Optional[WeightPolicy] = None,
        power_lookup: Optional[Callable[[str, float], float]] = None,
        dormant_lookup: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config or ScdaControllerConfig()
        self.other_resources = other_resources or OtherResourceModel()
        self.tree = ScdaTree(
            topology,
            self.config.params,
            self.other_resources,
            self.config.use_simplified_metric,
        )
        self.priority_manager = PriorityManager(weight_policy)
        self.reservations = ReservationRegistry()
        self.sla_monitor = SlaMonitor(
            mitigation=self.config.sla_mitigation,
            bandwidth_boost_factor=self.config.sla_bandwidth_boost,
            apply_bandwidth_boost=self._boost_location,
        )
        self.selector = ServerSelector(
            scale_down_threshold_bps=self.config.scale_down_threshold_bps,
            power_aware=self.config.power_aware_selection,
        )
        self.power_lookup = power_lookup
        self.dormant_lookup = dormant_lookup

        self.fabric = None  # set by attach_fabric
        self._last_round_time: Optional[float] = None
        self.rounds_run = 0
        #: host_id -> expiry times of recent placement decisions not yet
        #: visible in the RM/RA rates (see ScdaControllerConfig.placement_hint_ttl_s)
        self._pending_placements: Dict[str, List[float]] = {}

    # -- wiring -----------------------------------------------------------------------
    def attach_fabric(self, fabric) -> None:
        """Bind the controller to the fabric whose flows it allocates.

        Also subscribes to the fabric's topology-change notifications: the
        RM/RA calculators cache link capacities, so a runtime capacity change
        or link restoration (the dynamics layer) must refresh them the same
        way the SLA bandwidth boost does.
        """
        self.fabric = fabric
        register = getattr(fabric, "on_topology_changed", None)
        if register is not None:
            register(self._on_topology_changed)

    def _on_topology_changed(self, event: str, link: Link, now: float) -> None:
        calc = self.tree._link_calc.get(link.link_id)
        if calc is not None:
            calc.capacity_bps = link.capacity_bps

    # -- the control round ---------------------------------------------------------------
    def control_round(self, now: float, force: bool = False) -> bool:
        """Run one RM/RA round if the previous one is at least τ old.

        Returns True when a round actually ran.
        """
        tau = self.config.params.control_interval_s
        if not force and self._last_round_time is not None and now - self._last_round_time < tau - 1e-12:
            return False

        flows: List[Flow] = list(self.fabric.active_flows) if self.fabric is not None else []
        self.priority_manager.refresh(flows, now)

        # The fabric maintains the link→flows incidence incrementally; fall
        # back to a one-shot build only when running detached from a fabric.
        incidence = getattr(self.fabric, "incidence", None)
        if incidence is None or not incidence.matches(flows):
            incidence = IncidenceCache(flows)

        link_reservations = self.reservations.link_reservation_map(self.topology.links)
        self.tree.run_round(incidence, now, link_reservations)
        self._last_round_time = now
        self.rounds_run += 1

        self._record_sla_violations(now)
        return True

    def _record_sla_violations(self, now: float) -> None:
        for host_id, rm in self.tree.monitors.items():
            report = rm.last_report
            if report is None or not report.sla_violated:
                continue
            demand = max(report.rate_sum_up_bps, report.rate_sum_down_bps)
            capacity = max(
                rm.up_calc.effective_capacity_bps(rm.uplink.queue_bytes),
                rm.down_calc.effective_capacity_bps(rm.downlink.queue_bytes),
            )
            self.sla_monitor.record(now, host_id, 0, demand, capacity)
        for switch_id, ra in self.tree.allocators.items():
            summary = ra.last_summary
            if summary is None or not summary.sla_violated:
                continue
            demand = max(
                summary.aggregated_rate_sum_up_bps, summary.aggregated_rate_sum_down_bps
            )
            capacity = 0.0
            if ra.up_calc is not None:
                capacity = max(capacity, ra.up_calc.effective_capacity_bps(ra.uplink.queue_bytes))
            if ra.down_calc is not None:
                capacity = max(
                    capacity, ra.down_calc.effective_capacity_bps(ra.downlink.queue_bytes)
                )
            self.sla_monitor.record(now, switch_id, ra.level, demand, capacity)

    def _boost_location(self, location: str, factor: float) -> None:
        """SLA mitigation: enlarge the capacity of the links at ``location``.

        Models switching traffic onto the reserve/backup links the paper says
        a datacenter can maintain for automatic SLA resolution.
        """
        if not self.topology.has_node(location):
            return
        node = self.topology.node(location)
        boosted_links: List[Link] = []
        uplink = self.topology.uplink_of(node)
        downlink = self.topology.downlink_to(node)
        boosted_links.extend(l for l in (uplink, downlink) if l is not None)
        for link in boosted_links:
            link.capacity_bps *= factor
        # The calculators cache capacities; refresh them.
        for link in boosted_links:
            calc = self.tree._link_calc.get(link.link_id)
            if calc is not None:
                calc.capacity_bps = link.capacity_bps

    # -- RateProvider interface (consumed by ScdaTransport) --------------------------------
    def flow_allocations(self, flows: Sequence[Flow], now: float) -> Mapping[int, float]:
        """Per-flow explicit rates (Section IV): ``min(R_send,other, R_e2e, R_recv,other)``.

        ``R_e2e`` is the minimum advertised rate over the links of the flow's
        path; the sender's uplink and the receiver's downlink other-resource
        rates (CPU/disk, Section VI-A) cap it further.
        """
        self.control_round(now)
        allocations: Dict[int, float] = {}
        for flow in flows:
            rate = float("inf")
            for link in flow.path:
                rate = min(rate, self.tree.link_rate_bps(link))
            # R_other at the two endpoints (only hosts have RMs / resource limits).
            send_other, _ = self.other_resources.limits(flow.src.node_id, now)
            _, recv_other = self.other_resources.limits(flow.dst.node_id, now)
            rate = min(rate, send_other, recv_other)
            if rate == float("inf"):
                rate = 0.0
            elif flow.multiplicity != 1:
                # The advertised rate is per session; an aggregate flow
                # stands in for N sessions and demands N times it.
                rate *= flow.multiplicity
            allocations[flow.flow_id] = rate
        return allocations

    def on_flow_start(self, flow: Flow, now: float) -> None:
        """RateProvider hook — admit any requested reservation."""
        requested = flow.meta.get("reserve_bps")
        if requested:
            self.reservations.admit(flow, float(requested))

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        """RateProvider hook — release reservations of finished flows."""
        self.reservations.release(flow.flow_id)

    # -- server selection interface (consumed by the NNS) -------------------------------------
    def note_placement(self, host_id: str, now: Optional[float] = None) -> None:
        """Record that the NNS just directed a request to ``host_id``.

        Until the corresponding flow starts sending, the RM/RA rates cannot see
        it; this hint temporarily discounts the server's advertised rates so a
        burst of requests arriving within one setup window spreads over several
        servers instead of herding onto one.
        """
        ttl = self.config.placement_hint_ttl_s
        if ttl <= 0:
            return
        if now is None:
            now = self.sim.now
        self._pending_placements.setdefault(host_id, []).append(now + ttl)

    def pending_placements(self, host_id: str, now: Optional[float] = None) -> int:
        """Number of recent, still-unexpired placement hints for ``host_id``."""
        if now is None:
            now = self.sim.now
        entries = self._pending_placements.get(host_id)
        if not entries:
            return 0
        live = [t for t in entries if t > now]
        if len(live) != len(entries):
            if live:
                self._pending_placements[host_id] = live
            else:
                del self._pending_placements[host_id]
        return len(live)

    def selection_metrics(
        self, candidate_ids: Optional[Sequence[str]] = None, now: Optional[float] = None
    ) -> List[SelectionMetrics]:
        """Current per-BS metrics for the selection policies of Section VII."""
        if now is None:
            now = self.sim.now
        self.control_round(now)
        metrics = []
        for host_metric in self.tree.host_metrics(candidate_ids):
            power = 1.0
            dormant = False
            if self.power_lookup is not None:
                power = max(float(self.power_lookup(host_metric.host_id, now)), 1e-9)
            if self.dormant_lookup is not None:
                dormant = bool(self.dormant_lookup(host_metric.host_id))
            else:
                # Dormancy is a deliberate power-state decision made by the
                # energy manager (Section VII-C); without one, no server is
                # dormant.  The passive-content policy still prefers
                # nearly-idle servers through the R_scale threshold it applies
                # to the uplink rates directly.
                dormant = False
            # Discount servers the NNS has just sent still-unstarted work to.
            discount = 1.0 + self.pending_placements(host_metric.host_id, now)
            metrics.append(
                SelectionMetrics(
                    host_id=host_metric.host_id,
                    up_bps=host_metric.up_bps / discount,
                    down_bps=host_metric.down_bps / discount,
                    power_watts=power,
                    dormant=dormant,
                )
            )
        return metrics

    def select_primary(
        self, content_class, candidate_ids: Optional[Sequence[str]] = None
    ) -> str:
        """Block server for the initial write of the given content class."""
        metrics = self.selection_metrics(candidate_ids)
        chosen = self.selector.select_primary(content_class, metrics).host_id
        self.note_placement(chosen)
        return chosen

    def select_replica(
        self,
        content_class,
        candidate_ids: Optional[Sequence[str]] = None,
        primary_id: Optional[str] = None,
    ) -> str:
        """Block server for the replica of the given content class."""
        metrics = self.selection_metrics(candidate_ids)
        primary = next((m for m in metrics if m.host_id == primary_id), None)
        chosen = self.selector.select_replica(content_class, metrics, primary).host_id
        self.note_placement(chosen)
        return chosen

    def select_read_source(self, content_class, replica_ids: Sequence[str]) -> str:
        """Which replica a read should be served from (best uplink)."""
        metrics = self.selection_metrics(replica_ids)
        return self.selector.select_read_source(content_class, metrics).host_id

    # -- diagnostics -----------------------------------------------------------------------
    def link_rate_bps(self, link: Link) -> float:
        """Advertised rate of one link (for inspection/ablation)."""
        return self.tree.link_rate_bps(link)

    def report(self) -> Dict[str, object]:
        """A snapshot of controller state for logging / off-line analysis."""
        return {
            "time_s": self.sim.now,
            "rounds_run": self.rounds_run,
            "sla_violations": self.sla_monitor.count,
            "reservations": len(self.reservations),
            "hosts": {
                m.host_id: {"up_bps": m.up_bps, "down_bps": m.down_bps}
                for m in self.tree.host_metrics()
            },
        }
