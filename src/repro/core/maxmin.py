"""The SCDA max/min exchange over the RM/RA tree (Section VI-A, Figure 2).

:class:`ScdaTree` instantiates one :class:`~repro.core.monitors.ResourceMonitor`
per block server and one :class:`~repro.core.allocators.ResourceAllocator` per
switch, wired according to the datacenter tree.  Every control interval
:meth:`ScdaTree.run_round` performs

1. the *measurement* step — every RM applies equation 2 to its access links
   and caps the result with the server's other-resource rates,
2. the *upward* pass — RAs aggregate their children level by level, compute
   their own link rates and track the best block server of their subtree, and
3. the *downward* pass — every RM receives, for each tree level ``h``, the
   minimum of the link rates between the server and level ``h`` (the ``Ř``
   values of Figure 2), which is what the NNS uses to pace on-going flows and
   to choose replica sources.

Links that are not owned by any RM or RA (the external-client access links,
and redundant parallel links of non-tree fabrics) get standalone link-rate
calculators so that every link in the topology always has an advertised rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.allocators import BestServer, ChildMetrics, RaSummary, ResourceAllocator
from repro.core.monitors import OtherResourceModel, ResourceMonitor, RmReport
from repro.core.rate_metric import LinkRateCalculator, ScdaParams
from repro.network.flow import Flow
from repro.network.topology import Link, Node, NodeKind, Topology


@dataclass
class HostRateMetrics:
    """Whole-datacenter rates of one block server (used for server selection).

    ``up_bps`` is the rate at which content can be *read from* the server all
    the way out of the datacenter tree; ``down_bps`` the rate at which content
    can be *written to* it; ``min_bps`` the bidirectional rate relevant for
    interactive content (Section VII-A).
    """

    host_id: str
    up_bps: float
    down_bps: float

    @property
    def min_bps(self) -> float:
        return min(self.up_bps, self.down_bps)


@dataclass
class LevelRates:
    """Per-level rates of one host: ``level -> (uplink_bps, downlink_bps)``."""

    host_id: str
    rates: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    def up_to(self, level: int) -> float:
        return self.rates.get(level, self.rates.get(0, (float("inf"), float("inf"))))[0]

    def down_to(self, level: int) -> float:
        return self.rates.get(level, self.rates.get(0, (float("inf"), float("inf"))))[1]


class ScdaTree:
    """The RM/RA hierarchy over a datacenter topology."""

    def __init__(
        self,
        topology: Topology,
        params: Optional[ScdaParams] = None,
        other_resources: Optional[OtherResourceModel] = None,
        use_simplified_metric: bool = False,
    ) -> None:
        self.topology = topology
        self.params = params or ScdaParams()
        self.other_resources = other_resources or OtherResourceModel()
        self.use_simplified_metric = bool(use_simplified_metric)

        self.monitors: Dict[str, ResourceMonitor] = {}
        self.allocators: Dict[str, ResourceAllocator] = {}
        #: calculators for links not owned by an RM or RA (client links, extra parallel links)
        self.extra_calculators: Dict[str, LinkRateCalculator] = {}
        #: link_id -> the calculator advertising that link's rate
        self._link_calc: Dict[str, LinkRateCalculator] = {}
        #: per-host level rates from the most recent downward pass
        self._level_rates: Dict[str, LevelRates] = {}
        self.rounds_completed = 0

        self._build()

    # -- construction -------------------------------------------------------------------
    def _build(self) -> None:
        topo = self.topology
        covered_links: set = set()

        for host in topo.hosts():
            uplink = topo.uplink_of(host)
            downlink = topo.downlink_to(host)
            if uplink is None or downlink is None:
                raise ValueError(
                    f"host {host.node_id} lacks an uplink or downlink; "
                    "every block server needs both"
                )
            rm = ResourceMonitor(
                host,
                uplink,
                downlink,
                self.params,
                self.other_resources,
                self.use_simplified_metric,
            )
            self.monitors[host.node_id] = rm
            self._link_calc[uplink.link_id] = rm.up_calc
            self._link_calc[downlink.link_id] = rm.down_calc
            covered_links.update((uplink.link_id, downlink.link_id))

        for switch in topo.switches():
            uplink = topo.uplink_of(switch)
            downlink = topo.downlink_to(switch)
            ra = ResourceAllocator(
                switch,
                max(switch.level, 1),
                uplink,
                downlink,
                self.params,
                self.use_simplified_metric,
            )
            self.allocators[switch.node_id] = ra
            if uplink is not None and ra.up_calc is not None:
                self._link_calc[uplink.link_id] = ra.up_calc
                covered_links.add(uplink.link_id)
            if downlink is not None and ra.down_calc is not None:
                self._link_calc[downlink.link_id] = ra.down_calc
                covered_links.add(downlink.link_id)

        for link in topo.links:
            if link.link_id in covered_links:
                continue
            calc = LinkRateCalculator(
                link.capacity_bps, self.params, self.use_simplified_metric, name=link.link_id
            )
            self.extra_calculators[link.link_id] = calc
            self._link_calc[link.link_id] = calc

        # The walk every round takes, recorded once: a topology never gains
        # or loses nodes or links after its builder returns (a link failure
        # only clears ``link.up``), and the RMs and RAs are fixed above.
        self._hmax = topo.max_level()
        #: per level 1..hmax: (switch id, RA, the switch's children), in allocators order
        self._level_groups: List[List[Tuple[str, ResourceAllocator, List[Node]]]] = [
            [
                (switch_id, ra, topo.children(ra.switch))
                for switch_id, ra in self.allocators.items()
                if ra.level == level
            ]
            for level in range(1, self._hmax + 1)
        ]
        #: host id -> (level, RA) of each switch on the way up from the host
        self._host_chains: Dict[str, List[Tuple[int, ResourceAllocator]]] = {}
        for host_id, rm in self.monitors.items():
            chain = []
            parent = topo.parent(rm.host)
            while parent is not None and parent.kind is NodeKind.SWITCH:
                chain.append((parent.level, self.allocators[parent.node_id]))
                parent = topo.parent(parent)
            self._host_chains[host_id] = chain
        #: (link, calculator) of the standalone calculators, in topology link order
        self._standalone: List[Tuple[Link, LinkRateCalculator]] = [
            (link, self.extra_calculators[link.link_id])
            for link in topo.links
            if link.link_id in self.extra_calculators
        ]

    # -- queries --------------------------------------------------------------------------
    @property
    def hmax(self) -> int:
        """The highest switch level of the topology (``hmax`` in the paper)."""
        return self._hmax

    def monitor_of(self, host_id: str) -> ResourceMonitor:
        """The RM of a block server."""
        return self.monitors[host_id]

    def allocator_of(self, switch_id: str) -> ResourceAllocator:
        """The RA of a switch."""
        return self.allocators[switch_id]

    def link_rate_bps(self, link: Link) -> float:
        """The rate currently advertised for ``link`` (equation 2 output)."""
        calc = self._link_calc.get(link.link_id)
        if calc is None:
            return link.capacity_bps * self.params.alpha
        return calc.current_rate_bps

    def host_metrics(self, host_ids: Optional[Sequence[str]] = None) -> List[HostRateMetrics]:
        """Whole-datacenter (level ``hmax``) rates per block server."""
        result = []
        ids = host_ids if host_ids is not None else list(self.monitors)
        top = self.hmax
        for host_id in ids:
            if host_id not in self.monitors:
                continue
            rates = self._level_rates.get(host_id)
            if rates is None:
                rm = self.monitors[host_id]
                result.append(
                    HostRateMetrics(host_id, rm.capped_up_bps, rm.capped_down_bps)
                )
            else:
                result.append(HostRateMetrics(host_id, rates.up_to(top), rates.down_to(top)))
        return result

    def level_rates_of(self, host_id: str) -> LevelRates:
        """Per-level rates of one host (empty before the first round)."""
        return self._level_rates.get(host_id, LevelRates(host_id))

    def sla_violations(self) -> List[str]:
        """Ids of RMs/RAs whose last round detected an SLA violation."""
        violated = [
            rm.host.node_id
            for rm in self.monitors.values()
            if rm.last_report is not None and rm.last_report.sla_violated
        ]
        violated.extend(
            ra.switch.node_id
            for ra in self.allocators.values()
            if ra.last_summary is not None and ra.last_summary.sla_violated
        )
        return violated

    # -- one control interval ---------------------------------------------------------------
    def run_round(
        self,
        link_flows: Mapping[str, Sequence[Flow]],
        now: float,
        link_reservations: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Run the measurement, upward and downward passes for one interval.

        Parameters
        ----------
        link_flows:
            ``link_id -> flows currently crossing that link`` (provided by the
            controller from the fabric's active-flow set), or an
            :class:`~repro.network.incidence.IncidenceCache` — the fabric's
            incrementally-maintained incidence — whose per-epoch map is used
            directly instead of a freshly built dict.
        now:
            Current simulated time.
        link_reservations:
            Total explicitly reserved bandwidth per link id (Section IV-C).
        """
        if hasattr(link_flows, "link_flows_map"):
            link_flows = link_flows.link_flows_map()
        reservations = dict(link_reservations or {})

        def flows_on(link: Optional[Link]) -> Sequence[Flow]:
            if link is None:
                return ()
            return link_flows.get(link.link_id, ())

        def reserved_on(link: Optional[Link]) -> float:
            if link is None:
                return 0.0
            return reservations.get(link.link_id, 0.0)

        # 1. Measurement at every RM.
        reports: Dict[str, RmReport] = {}
        for host_id, rm in self.monitors.items():
            reports[host_id] = rm.measure(
                flows_up=flows_on(rm.uplink),
                flows_down=flows_on(rm.downlink),
                now=now,
                reserved_up_bps=reserved_on(rm.uplink),
                reserved_down_bps=reserved_on(rm.downlink),
            )

        # Standalone calculators (client access links etc.).
        for link, calc in self._standalone:
            flows = flows_on(link)
            calc.update(
                queue_bytes=link.queue_bytes,
                flow_rates_bps=[f.current_rate_bps for f in flows],
                # Per-session weights: the S = Σ ℘_j·R_j sums *aggregate*
                # delivered rates, which already carry an aggregate flow's
                # multiplicity — effective (×N) weights would double-count it.
                weights=[f.priority_weight for f in flows],
                reserved_bps=reserved_on(link),
            )

        # 2. Upward pass, level by level.
        summaries: Dict[str, RaSummary] = {}
        for group in self._level_groups:
            for switch_id, ra, children in group:
                own_up, own_down = ra.compute_own_rates(
                    flows_up=flows_on(ra.uplink),
                    flows_down=flows_on(ra.downlink),
                    reserved_up_bps=reserved_on(ra.uplink),
                    reserved_down_bps=reserved_on(ra.downlink),
                )
                child_metrics: List[ChildMetrics] = []
                for child in children:
                    if child.kind is NodeKind.HOST and child.node_id in reports:
                        rep = reports[child.node_id]
                        child_metrics.append(
                            ChildMetrics(
                                child_id=child.node_id,
                                rate_up_bps=rep.rate_up_bps,
                                rate_down_bps=rep.rate_down_bps,
                                rate_sum_up_bps=rep.rate_sum_up_bps,
                                rate_sum_down_bps=rep.rate_sum_down_bps,
                                best_up_host=child.node_id,
                                best_down_host=child.node_id,
                                best_min_host=child.node_id,
                                sla_violated=rep.sla_violated,
                            )
                        )
                    elif child.node_id in summaries:
                        summary = summaries[child.node_id]
                        child_metrics.append(
                            ChildMetrics(
                                child_id=child.node_id,
                                rate_up_bps=summary.best_up.rate_bps if summary.best_up else 0.0,
                                rate_down_bps=summary.best_down.rate_bps
                                if summary.best_down
                                else 0.0,
                                rate_sum_up_bps=summary.aggregated_rate_sum_up_bps,
                                rate_sum_down_bps=summary.aggregated_rate_sum_down_bps,
                                best_up_host=summary.best_up.host_id if summary.best_up else "",
                                best_down_host=summary.best_down.host_id
                                if summary.best_down
                                else "",
                                best_min_host=summary.best_min.host_id if summary.best_min else "",
                                sla_violated=summary.sla_violated,
                            )
                        )
                summaries[switch_id] = ra.aggregate(child_metrics, own_up, own_down)

        # 3. Downward pass: per-host cumulative minimum rates up to each level.
        for host_id, rm in self.monitors.items():
            level_rates = LevelRates(host_id)
            up = rm.capped_up_bps
            down = rm.capped_down_bps
            level_rates.rates[0] = (up, down)
            level = 0
            for level, ra in self._host_chains[host_id]:
                # Rates of the RA's own links constrain reaching *beyond* this
                # level; reaching level ``level`` itself only crosses the links
                # below it, already accumulated in ``up``/``down``.
                level_rates.rates[level] = (up, down)
                if ra.up_calc is not None:
                    up = min(up, ra.up_calc.current_rate_bps)
                if ra.down_calc is not None:
                    down = min(down, ra.down_calc.current_rate_bps)
            # Any levels above the last switch reachable keep the final values.
            for lvl in range(level + 1, self.hmax + 1):
                level_rates.rates[lvl] = (up, down)
            self._level_rates[host_id] = level_rates
            for lvl, (u, d) in level_rates.rates.items():
                rm.receive_level_rate(lvl, u, d)

        self.rounds_completed += 1

    def reset(self) -> None:
        """Reset every calculator (used between experiments)."""
        for rm in self.monitors.values():
            rm.up_calc.reset()
            rm.down_calc.reset()
            rm.level_rates.clear()
        for ra in self.allocators.values():
            if ra.up_calc is not None:
                ra.up_calc.reset()
            if ra.down_calc is not None:
                ra.down_calc.reset()
        for calc in self.extra_calculators.values():
            calc.reset()
        self._level_rates.clear()
        self.rounds_completed = 0
