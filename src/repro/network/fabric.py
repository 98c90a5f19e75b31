"""The event-driven fabric simulator.

:class:`FabricSimulator` owns the set of active flows and advances them in a
fluid fashion:

* between events every flow delivers bytes at its ``current_rate_bps``;
* link queues integrate the difference between offered (demand) rates and
  capacity, latching loss indications when buffers overflow;
* at every *recompute point* (flow arrival, flow completion, control-interval
  tick) the attached :class:`~repro.network.transport.base.TransportModel`
  re-assigns per-flow demand and delivered rates;
* the next recompute point is the earlier of the next control tick and the
  earliest projected flow completion, so completions are honoured exactly.

The fabric is transport-agnostic: the same machinery runs the RandTCP
baseline and SCDA.

State layout: once the fabric's incidence table exists, every active flow's
state lives in the table's row columns and every link's state in its
topology's link columns (see :class:`~repro.network.incidence.IncidenceTable`
and :class:`~repro.network.topology.LinkColumns`), and advancing, scheduling
and rate write-back are array operations over them.  The table is built the
first time the fabric advances with :data:`_PAIRWISE_MIN_FLOWS` or more
active flows (or a solver needs it); until then flows and links hold their
own values and are advanced through their own scalar methods.

On the table an advance costs the churn plus two passes that cannot be
avoided: every flow's remaining bytes and every loaded link's carried bytes.
Offered loads are kept per slot between advances and re-added only where a
slot's rows or their demands changed (:class:`_LinkLoads`), and only links
with a backlog or more offered load than capacity run the queue step.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.flow import Flow, FlowKind, FlowState
from repro.network.fluid_fast import DeltaWaterFiller, RowRates
from repro.network.incidence import IncidenceCache, IncidenceTable
from repro.network.routing import NoPathError, Router
from repro.network.topology import Link, LinkColumns, Node, Topology, grown
from repro.sim.engine import Simulator

#: From this many active flows the first advance builds the incidence table,
#: and delivered bytes are summed pairwise (one numpy sum); below it they are
#: added one flow at a time in active order, and so are each link's offered
#: loads.  Both orders are the ones the results have always been computed in.
_PAIRWISE_MIN_FLOWS = 64


@dataclass
class FabricConfig:
    """Tunables of the fabric simulator.

    ``control_interval_s`` is the paper's τ: the period at which rates are
    re-evaluated even when no flow arrives or departs.
    """

    control_interval_s: float = 0.010
    completion_tolerance_bytes: float = 0.5
    max_active_flows: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.control_interval_s > 0:  # NaN too
            raise ValueError("control_interval_s must be positive")
        if not self.completion_tolerance_bytes >= 0:
            raise ValueError("completion_tolerance_bytes must be non-negative")


class FabricSimulator:
    """Flow-level datacenter fabric driven by a discrete-event simulator.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    topology:
        The datacenter network.
    transport:
        A transport model (see :mod:`repro.network.transport`); it is
        attached to this fabric on construction.
    router:
        Path selection; defaults to hop-count shortest path.
    config:
        Fabric tunables.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transport: "TransportModelLike",
        router: Optional[Router] = None,
        config: Optional[FabricConfig] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.transport = transport
        self.router = router or Router(topology)
        self.config = config or FabricConfig()

        #: The active flows in arrival order, the list :attr:`active_flows`
        #: hands out, kept in place: appended on arrival, deleted by position
        #: on completion.  :attr:`incidence` holds the same flows.
        self._active_list: List[Flow] = []
        self.finished_flows: List[Flow] = []
        #: link→flows incidence over the active set, updated incrementally on
        #: every arrival/departure/reroute and shared with the water-filler
        #: and the SCDA control round (instead of each re-deriving it).
        self.incidence = IncidenceCache(transport_columns=transport.transport_columns)
        DeltaWaterFiller.attach(self.incidence)
        #: Table rows of the active flows in active order, cached per cache
        #: epoch; a reroute re-adds its flow at the end of the table, after
        #: which row order may differ from active order.
        self._rows: Optional[np.ndarray] = None
        self._rows_epoch = -1
        self._rows_reordered = False
        #: offered load per table slot and the links whose queues move
        self._loads: Optional[_LinkLoads] = None
        self._last_advance = sim.now
        self._next_recompute_event = None
        self._next_tick_time = sim.now
        self.total_bytes_delivered = 0.0
        self._finish_callbacks: List[Callable[[Flow, float], None]] = []
        self._start_callbacks: List[Callable[[Flow, float], None]] = []
        self._abort_callbacks: List[Callable[[Flow, float], None]] = []
        #: ``callback(event, link, now)`` with event one of ``link-failed``,
        #: ``link-restored``, ``link-capacity`` — how control planes that
        #: cache link state (the SCDA RM/RA calculators) stay in sync with
        #: runtime topology mutations.
        self._topology_callbacks: List[Callable[[str, Link, float], None]] = []
        self._down_link_ids: Set[str] = set()
        # Dynamics accounting (read by the metrics layer).
        self.link_failures = 0
        self.link_recoveries = 0
        self.capacity_changes = 0
        self.flows_rerouted_on_failure = 0
        self.flows_aborted_on_failure = 0
        # Churn batching (see :meth:`churn`) and perf accounting.
        self._churn_depth = 0
        self._churn_pending = False
        self.recomputes = 0
        self.recomputes_coalesced = 0
        #: Links holding backlog while the table does not exist — the drain
        #: pass visits only these instead of scanning every link in the
        #: topology.  The first columnar advance binds them and empties this.
        self._queued_links: Dict[str, Link] = {}
        #: Per-fabric flow ids: flow numbering restarts at 0 for every fabric,
        #: so a run's records are identical no matter what ran earlier in the
        #: process (or concurrently in another thread) — a prerequisite for
        #: bit-identical results across executor backends.
        self._flow_ids = itertools.count()
        #: Active flows with ``multiplicity > 1`` — when zero, the columnar
        #: advance/schedule paths skip the multiplicity column entirely,
        #: keeping the all-discrete fast path untouched.
        self._aggregate_active = 0

        self.transport.attach(self)

    # -- observers -----------------------------------------------------------------
    def on_flow_finished(self, callback: Callable[[Flow, float], None]) -> None:
        """Register ``callback(flow, now)`` to run whenever a flow completes."""
        self._finish_callbacks.append(callback)

    def on_flow_started(self, callback: Callable[[Flow, float], None]) -> None:
        """Register ``callback(flow, now)`` to run whenever a flow starts."""
        self._start_callbacks.append(callback)

    def on_flow_aborted(self, callback: Callable[[Flow, float], None]) -> None:
        """Register ``callback(flow, now)`` to run whenever a flow is aborted."""
        self._abort_callbacks.append(callback)

    def remove_flow_finished_callback(self, callback: Callable[[Flow, float], None]) -> None:
        """Unregister a completion callback; a no-op if it is not registered."""
        try:
            self._finish_callbacks.remove(callback)
        except ValueError:
            pass

    def remove_flow_started_callback(self, callback: Callable[[Flow, float], None]) -> None:
        """Unregister a start callback; a no-op if it is not registered."""
        try:
            self._start_callbacks.remove(callback)
        except ValueError:
            pass

    def remove_flow_aborted_callback(self, callback: Callable[[Flow, float], None]) -> None:
        """Unregister an abort callback; a no-op if it is not registered."""
        try:
            self._abort_callbacks.remove(callback)
        except ValueError:
            pass

    def on_topology_changed(self, callback: Callable[[str, Link, float], None]) -> None:
        """Register ``callback(event, link, now)`` for runtime topology mutations."""
        self._topology_callbacks.append(callback)

    def remove_topology_changed_callback(
        self, callback: Callable[[str, Link, float], None]
    ) -> None:
        """Unregister a topology-change callback; a no-op if not registered."""
        try:
            self._topology_callbacks.remove(callback)
        except ValueError:
            pass

    def _notify_topology_changed(self, event: str, link: Link, now: float) -> None:
        for callback in self._topology_callbacks:
            callback(event, link, now)

    @property
    def active_flow_count(self) -> int:
        """Number of currently transferring flows."""
        return len(self._active_list)

    @property
    def active_flows(self) -> List[Flow]:
        """The currently transferring flows, in arrival order.

        The fabric's own list, updated in place as flows start and end (copy
        it to keep a snapshot across churn), and declared to the incidence
        cache (:meth:`IncidenceCache.trust_flows`) so the delta water-filler
        can skip its O(F) membership check when handed this exact object.
        Treat it as read-only.
        """
        lst = self._active_list
        if self.incidence.trusted_flows is not lst:
            self.incidence.trust_flows(lst)
        return lst

    @contextmanager
    def churn(self) -> Iterator["FabricSimulator"]:
        """Coalesce a same-timestamp burst of flow churn into one recompute.

        Inside the block, arrivals/departures/reroutes update flow and
        incidence state immediately but defer the transport rate update and
        recompute-timer rescheduling; a single :meth:`_recompute` runs when
        the outermost block exits.  The block must not advance simulated
        time.  Nesting is allowed.
        """
        self._churn_depth += 1
        try:
            yield self
        finally:
            self._churn_depth -= 1
            if self._churn_depth == 0 and self._churn_pending:
                self._churn_pending = False
                self._recompute(self.sim.now)

    def flows_on_link(self, link: Link) -> List[Flow]:
        """Active flows whose path crosses ``link``."""
        return list(self.incidence.link_flows_map().get(link.link_id, ()))

    # -- flow lifecycle --------------------------------------------------------------
    def start_flow(
        self,
        src: Node,
        dst: Node,
        size_bytes: float,
        kind: FlowKind = FlowKind.DATA,
        created_at: Optional[float] = None,
        priority_weight: float = 1.0,
        min_rate_bps: float = 0.0,
        app_limit_bps: float = float("inf"),
        multiplicity: int = 1,
        tenant: str = "",
        path: Optional[List[Link]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> Flow:
        """Create a flow and start transferring immediately.

        ``created_at`` defaults to the current time; pass the original request
        time when connection-setup latency has already elapsed so that FCT
        accounts for it.  ``multiplicity=N`` starts an aggregate flow standing
        in for N identical sessions (see :class:`~repro.network.flow.Flow`).
        """
        if len(self._active_list) >= self.config.max_active_flows:
            raise RuntimeError("too many active flows; raise FabricConfig.max_active_flows")
        now = self.sim.now
        flow = Flow(
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            path=path if path is not None else self.router.path_for_new_flow(src, dst),
            kind=kind,
            created_at=now if created_at is None else created_at,
            priority_weight=priority_weight,
            min_rate_bps=min_rate_bps,
            app_limit_bps=app_limit_bps,
            multiplicity=multiplicity,
            tenant=tenant,
            flow_id=next(self._flow_ids),
        )
        if meta:
            flow.meta.update(meta)
        if not flow.path:
            raise ValueError(
                f"flow between {src.node_id} and {dst.node_id} has an empty path; "
                "src and dst must be distinct, connected nodes"
            )
        # Bring the fluid state up to date before the flow joins.
        self._advance_to(now)
        flow.start(now)
        self._active_list.append(flow)
        if flow.multiplicity > 1:
            self._aggregate_active += 1
        self.incidence.add_flow(flow)
        self.transport.on_flow_start(flow, now)
        for callback in self._start_callbacks:
            callback(flow, now)
        self._recompute(now)
        return flow

    def abort_flow(self, flow: Flow) -> None:
        """Cancel an active flow (e.g. SLA mitigation moving it elsewhere).

        A no-op when the flow is no longer active once the fabric has caught
        up to now: it completed during that advance, or was already aborted.
        """
        now = self.sim.now
        self._advance_to(now)
        if flow not in self.incidence:
            return
        self._drop_active(flow)
        if flow.multiplicity > 1:
            self._aggregate_active -= 1
        self.incidence.remove_flow(flow)
        flow.abort(now)
        self.transport.on_flow_finish(flow, now)
        for callback in self._abort_callbacks:
            callback(flow, now)
        self._recompute(now)

    def reroute_flow(self, flow: Flow, new_path: List[Link], reason: str = "policy") -> None:
        """Move an active flow onto a different path (Hedera-style rerouting).

        ``reason`` is forwarded to the transport's
        :meth:`~repro.network.transport.base.TransportModel.on_flow_rerouted`
        hook: ``"policy"`` reroutes (Hedera moving an elephant) keep the
        transport state, while ``"failure"`` reroutes (the old path lost a
        link) let loss-based transports model the disruption, e.g. TCP
        restarting in slow start.  A path over a failed link is refused
        with ``ValueError`` before anything changes.
        """
        if flow.state is not FlowState.ACTIVE:
            raise RuntimeError(f"cannot reroute non-active flow {flow.flow_id}")
        down = [link.link_id for link in new_path if not link.up]
        if down:
            raise ValueError(
                f"cannot reroute flow {flow.flow_id} over failed link(s) {down}"
            )
        now = self.sim.now
        self._advance_to(now)
        self.incidence.remove_flow(flow)
        self._rows_reordered = True
        flow.path = list(new_path)
        flow.base_rtt_s = 2.0 * sum(l.delay_s for l in flow.path) if flow.path else 1e-4
        self.incidence.add_flow(flow)
        self.transport.on_flow_rerouted(flow, now, reason)
        self._recompute(now)

    # -- runtime topology mutation -----------------------------------------------------
    @property
    def links_down(self) -> int:
        """Number of links currently failed."""
        return len(self._down_link_ids)

    def fail_link(self, link: Link) -> List[Flow]:
        """Take ``link`` down; reroute or abort the flows stranded on it.

        Stranded flows are moved onto a surviving path when one exists
        (``reroute_flow(..., reason="failure")``, so loss-based transports
        restart their windows); flows with no remaining path are aborted.
        Routing caches are invalidated so new flows avoid the link.  Returns
        the flows that had to be aborted.  A no-op on an already-down link.
        """
        now = self.sim.now
        if not link.up:
            return []
        self._advance_to(now)
        link.up = False
        self._down_link_ids.add(link.link_id)
        self.link_failures += 1
        self.router.invalidate_routes()
        stranded = list(self.incidence.link_flows_map().get(link.link_id, ()))
        aborted: List[Flow] = []
        # One rate recompute for the whole failure event, however many flows
        # were stranded — the per-flow reroutes/aborts all land at `now`.
        with self.churn():
            for flow in stranded:
                if flow.state is not FlowState.ACTIVE:
                    continue
                try:
                    new_path = self.router.path_for_new_flow(flow.src, flow.dst)
                except NoPathError:
                    new_path = None
                if new_path and all(l.up for l in new_path):
                    self.reroute_flow(flow, new_path, reason="failure")
                    self.flows_rerouted_on_failure += 1
                else:
                    self.abort_flow(flow)
                    self.flows_aborted_on_failure += 1
                    aborted.append(flow)
            self._notify_topology_changed("link-failed", link, now)
            self._recompute(now)
        return aborted

    def restore_link(self, link: Link) -> None:
        """Bring a failed link back up (queue state cleared; routes refreshed).

        Already-active flows keep their detour paths — like real WAN/DC
        reconvergence, only *new* flows see the restored link.  A no-op on a
        link that is already up.
        """
        now = self.sim.now
        if link.up:
            return
        self._advance_to(now)
        link.up = True
        link.queue_bytes = 0.0
        self._queued_links.pop(link.link_id, None)
        self._down_link_ids.discard(link.link_id)
        self.link_recoveries += 1
        self.router.invalidate_routes()
        self._notify_topology_changed("link-restored", link, now)
        self._recompute(now)

    def set_link_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change a link's capacity at runtime (degradation or recovery).

        The shared :class:`~repro.network.incidence.IncidenceCache` never
        caches capacities, so the next water-filler solve picks the new value
        up without an epoch bump; control planes that *do* cache capacities
        are refreshed through the topology-change callbacks.
        """
        if not capacity_bps > 0:  # NaN too
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        now = self.sim.now
        self._advance_to(now)
        link.capacity_bps = float(capacity_bps)
        self.capacity_changes += 1
        self._notify_topology_changed("link-capacity", link, now)
        self._recompute(now)

    # -- fluid advancement --------------------------------------------------------------
    def _advance_to(self, now: float) -> None:
        """Integrate flow progress and link queues from the last update to ``now``."""
        dt = now - self._last_advance
        if dt < 0:
            raise RuntimeError("fabric time went backwards")
        if dt == 0.0 or not self._active_list:
            self._last_advance = now
            return

        table = self.incidence.built_table
        if table is None and len(self._active_list) >= _PAIRWISE_MIN_FLOWS:
            table = self.incidence.table()
        if table is None:
            done = self._advance_handles(dt)
        else:
            done = self._advance_columns(dt, table)

        self._last_advance = now
        if done:
            # Positions in active order: the k-th finished flow sits at its
            # position less the k deleted before it, unless a callback of an
            # earlier one changed the list.
            flows = self._active_list
            for deleted, (position, flow) in enumerate([(i, flows[i]) for i in done]):
                self._finish_flow(flow, now, position - deleted)

    def _advance_handles(self, dt: float) -> List[int]:
        """Advance unbound flows and links through their own scalar methods.

        Only runs before the fabric's table exists: until an advance first
        finds :data:`_PAIRWISE_MIN_FLOWS` or more active flows, or an
        incremental solve builds it.  Binding a handful of flows to columns
        costs more per event (binding, unbinding, column reads by transports
        and control planes) than the array operations save.
        """
        # Offered load per link (demand may exceed capacity — that is how
        # queues build for TCP-style transports).
        flows = self.active_flows
        offered: Dict[str, float] = {}
        touched: Dict[str, Link] = {}
        for flow in flows:
            if flow.demand_rate_bps <= 0:
                continue
            for link in flow.path:
                offered[link.link_id] = offered.get(link.link_id, 0.0) + flow.demand_rate_bps
                touched[link.link_id] = link
        queued = self._queued_links
        for link_id, link in touched.items():
            link.integrate_queue(offered[link_id], dt)
            if link.queue_bytes > 0.0:
                queued[link_id] = link
            else:
                queued.pop(link_id, None)
        for link_id in list(queued):
            if link_id not in touched:
                link = queued[link_id]
                link.integrate_queue(0.0, dt)
                if link.queue_bytes <= 0.0:
                    del queued[link_id]

        done: List[int] = []
        tolerance = self.config.completion_tolerance_bytes
        for position, flow in enumerate(flows):
            self.total_bytes_delivered += flow.advance(dt)
            if flow.remaining_bytes <= tolerance:
                done.append(position)
        return done

    def _active_rows(self, table: IncidenceTable) -> np.ndarray:
        """Table rows of the active flows, in active (arrival) order."""
        epoch = self.incidence.epoch
        if self._rows_epoch == epoch:
            return self._rows
        if self._rows_reordered:
            rows = np.fromiter(
                (flow._index for flow in self.active_flows), np.intp, len(self._active_list)
            )
            self._rows_reordered = bool((rows[1:] < rows[:-1]).any())
        else:
            rows = np.flatnonzero(table.live[: table.num_rows])
        self._rows = rows
        self._rows_epoch = epoch
        return rows

    def _advance_columns(self, dt: float, table: IncidenceTable) -> List[int]:
        """Advance every active flow and loaded link with array operations;
        returns the positions of the finished flows in active order.

        Per-flow and per-link arithmetic is :meth:`Flow.advance` and
        :meth:`Link.integrate_queue` operation for operation, on the row and
        link columns.  Summation orders follow :data:`_PAIRWISE_MIN_FLOWS`.
        """
        queued = self._queued_links
        if queued:
            # Backlog built before the table existed: its links join the
            # columns, whose queue log hands them to the backlog pass below.
            for link in queued.values():
                table.bind_link(link)
            queued.clear()
        rows = self._active_rows(table)
        count = rows.shape[0]
        sequential = count < _PAIRWISE_MIN_FLOWS
        loads = self._loads
        if loads is None or loads.table is not table:
            loads = self._loads = _LinkLoads(table)
        if sequential and self._rows_reordered:
            # Visit the pairs in active order, each row's in path order, so
            # every link adds up its offered load in the per-flow order.
            pairs = table.pair_count
            pair_flow = table.pair_flow[:pairs]
            pair_link = table.pair_link[:pairs]
            rank = np.full(table.num_rows, count, dtype=np.intp)
            rank[rows] = np.arange(count)
            order = np.argsort(rank[pair_flow], kind="stable")
            loads.rebuild(
                np.bincount(
                    pair_link[order],
                    weights=table.demand_rate[pair_flow[order]],
                    minlength=table.num_slots,
                ),
                keep=False,
            )
        else:
            loads.update()
        loads.integrate(dt)

        # Remaining bytes: min(remaining, rate * dt / 8.0) per session, as in
        # Flow.advance; the multiplicity division only exists while an
        # aggregate flow is active.  The arithmetic runs in place on whole
        # columns, dead rows included (their values are never read again),
        # and the delivered bytes are summed over the active rows in order.
        n_rows = table.num_rows
        rate = table.current_rate[:n_rows]
        remaining = table.remaining[:n_rows]
        with np.errstate(invalid="ignore"):
            if self._aggregate_active:
                mult = table.multiplicity[:n_rows]
                delivered = rate / mult
                delivered *= dt
            else:
                delivered = rate * dt
            delivered /= 8.0
            np.minimum(remaining, delivered, out=delivered)
            remaining -= delivered
            if self._aggregate_active:
                delivered *= mult
        sent = delivered[rows]
        if sequential:
            total = self.total_bytes_delivered
            for value in sent.tolist():
                total += value
            self.total_bytes_delivered = total
        else:
            self.total_bytes_delivered += float(sent.sum())

        return np.flatnonzero(
            remaining[rows] <= self.config.completion_tolerance_bytes
        ).tolist()

    def _drop_active(self, flow: Flow, position: int = -1) -> None:
        """Delete ``flow`` from the active list, at ``position`` if it is there."""
        flows = self._active_list
        if not (0 <= position < len(flows) and flows[position] is flow):
            position = next(i for i, other in enumerate(flows) if other is flow)
        del flows[position]

    def _finish_flow(self, flow: Flow, now: float, position: int = -1) -> None:
        if flow in self.incidence:
            self._drop_active(flow, position)
            if flow.multiplicity > 1:
                self._aggregate_active -= 1
            self.incidence.remove_flow(flow)
        flow.finish(now)
        self.finished_flows.append(flow)
        self.transport.on_flow_finish(flow, now)
        for callback in self._finish_callbacks:
            callback(flow, now)

    # -- per-flow views for transports ---------------------------------------------------
    def table_for(self, flows: Sequence[Flow]) -> Optional[IncidenceTable]:
        """The table, when ``flows`` is the active list and its rows exist:
        then :meth:`set_rates` and :meth:`path_congestion` work on columns."""
        table = self.incidence.built_table
        if table is None or flows is not self._active_list:
            return None
        return table

    def set_rates(
        self,
        flows: Sequence[Flow],
        demand: Mapping[int, float],
        delivered: Mapping[int, float],
    ) -> None:
        """Give every flow of ``flows`` its demand and delivered rate.

        ``demand`` and ``delivered`` map flow ids to bits/s.  On the active
        list of a columnar fabric this is one column write each, straight
        from the row-aligned vector of either one that is a
        :class:`~repro.network.fluid_fast.RowRates` of the fabric's table (a
        solve's rates, TCP's demands).
        """
        table = self.table_for(flows)
        if table is None:
            for flow in flows:
                flow.demand_rate_bps = demand[flow.flow_id]
                flow.current_rate_bps = delivered[flow.flow_id]
            return
        for column, rates in ((table.demand_rate, demand), (table.current_rate, delivered)):
            if isinstance(rates, RowRates) and rates.table is table:
                column[: rates.rates.shape[0]] = rates.rates
            else:
                column[self._active_rows(table)] = np.fromiter(
                    (rates[flow.flow_id] for flow in flows), np.float64, len(flows)
                )

    def path_congestion(self, flows: Sequence[Flow]) -> Tuple[Sequence[float], Sequence[bool]]:
        """Per flow of ``flows``: the queueing delay summed along its path (as
        in :meth:`Flow.rtt_estimate`) and whether a link on it latched a loss.

        Consumes the loss latch of every link the flows cross
        (:meth:`Link.consume_loss_flag`).  Returns two lists in the order of
        ``flows``; on the active list of a columnar fabric, two row-aligned
        arrays instead (entry ``row`` for the flow in that table row), both
        from the link columns with one ``bincount`` each, which adds each
        path's delays in path order like the per-flow sum.
        """
        table = self.table_for(flows)
        if table is None:
            lossy_links: Set[str] = set()
            seen: Set[str] = set()
            for flow in flows:
                for link in flow.path:
                    if link.link_id in seen:
                        continue
                    seen.add(link.link_id)
                    if link.consume_loss_flag():
                        lossy_links.add(link.link_id)
            queueing = [sum(link.queueing_delay() for link in flow.path) for flow in flows]
            lossy = [any(link.link_id in lossy_links for link in flow.path) for flow in flows]
            return queueing, lossy
        links = table.links
        pairs = table.pair_count
        pair_flow = table.pair_flow[:pairs]
        pair_link = table.slot_link[table.pair_link[:pairs]]
        delay = links.queue[pair_link] * 8.0 / links.capacity[pair_link]
        queueing = np.bincount(pair_flow, weights=delay, minlength=table.num_rows)
        if not links.loss_flag.any():
            return queueing, np.zeros(table.num_rows, dtype=np.bool_)
        flagged = np.bincount(
            pair_flow, weights=links.loss_flag[pair_link], minlength=table.num_rows
        )
        links.loss_flag[pair_link] = False
        return queueing, flagged > 0.0

    # -- recompute scheduling --------------------------------------------------------------
    def _recompute(self, now: float) -> None:
        """Ask the transport for fresh rates and schedule the next recompute.

        Inside a :meth:`churn` block the call is deferred (and counted) so a
        burst of same-timestamp arrivals/departures pays for one transport
        update instead of one per event.
        """
        if self._churn_depth:
            self._churn_pending = True
            self.recomputes_coalesced += 1
            return
        self.recomputes += 1
        if self._active_list:
            # The cached snapshot, not a copy: the solver recognises the
            # trusted list and skips its per-call membership check.
            self.transport.update_rates(self.active_flows, now)
        self._schedule_next(now)

    def _schedule_next(self, now: float) -> None:
        if self._next_recompute_event is not None:
            self._next_recompute_event.cancel()
            self._next_recompute_event = None
        if not self._active_list:
            return
        table = self.incidence.built_table
        if table is None:
            earliest_completion = min(f.time_to_complete() for f in self.active_flows)
        else:
            # The least Flow.time_to_complete over the active flows: 0 when
            # one has no bytes left, else over those with a positive rate.
            # Whole columns, with the rows that hold no active flow masked.
            n_rows = table.num_rows
            live = table.live[:n_rows]
            remaining = table.remaining[:n_rows]
            if np.min(remaining, where=live, initial=np.inf) <= 0.0:
                earliest_completion = 0.0
            else:
                rate = table.current_rate[:n_rows]
                with np.errstate(divide="ignore", invalid="ignore"):
                    if self._aggregate_active:
                        rate = rate / table.multiplicity[:n_rows]
                    ttc = remaining * 8.0
                    ttc /= rate
                moving = rate > 0.0
                moving &= live
                earliest_completion = float(np.min(ttc, where=moving, initial=np.inf))
        next_time = now + min(self.config.control_interval_s, max(earliest_completion, 0.0))
        # Guard against zero-length steps caused by floating-point round-off.
        next_time = max(next_time, now + 1e-9)
        self._next_recompute_event = self.sim.call_at(next_time, self._on_recompute_timer)

    def _on_recompute_timer(self) -> None:
        now = self.sim.now
        self._next_recompute_event = None
        self._advance_to(now)
        self._recompute(now)

    # -- draining --------------------------------------------------------------------------
    def drain(self, deadline: Optional[float] = None) -> None:
        """Run the simulator until all active flows finish (or ``deadline``)."""
        while self._active_list:
            next_event = self.sim.peek()
            if next_event is None:
                raise RuntimeError(
                    "fabric has active flows but no pending events; "
                    "a transport returned a zero rate for every flow"
                )
            if deadline is not None and next_event > deadline:
                break
            self.sim.step()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FabricSimulator t={self.sim.now:g} active={len(self._active_list)} "
            f"finished={len(self.finished_flows)}>"
        )


class _LinkLoads:
    """Offered load per slot of a fabric's table, kept between advances, and
    the links whose queues move.

    ``bincount`` adds each slot's terms one at a time in pair order, so
    re-adding the rows on one slot (the table's per-slot row lists) in that
    order gives the bits of a full ``bincount``.  :meth:`update` re-adds the
    slots whose rows changed (the table's slot log) or whose rows' demand
    changed (a bitwise comparison with a copy of the demand column), and
    makes one full ``bincount`` instead when most rows changed.

    :meth:`integrate` is :meth:`Link.integrate_queue` on every link of the
    columns: carried bytes grow by ``min(offered, capacity) * dt / 8`` (kept
    per link entry, 0.0 on a link without load here), but the queue step
    only runs on links that are overloaded or hold a backlog.  On the others
    it is exact to skip: a queue at 0 whose offered load is at most the
    capacity stays at 0, with no loss (buffers are not negative).  Capacity
    writes reach the kept minima through the link columns' capacity log;
    backlogs written outside the advance (a reset, a link bound with one,
    another fabric on the same topology) through the queue log.
    """

    #: Changed rows, as a fraction of all rows, from which :meth:`update`
    #: makes one full ``bincount``.
    FULL_FRACTION = 0.25
    #: Below this many pairs every update is one full ``bincount``: cheaper
    #: than finding what changed (on ``fattree-churn``-shaped tables, 18 vs
    #: 55 us at 1,160 pairs, 53 vs 58 us at 4,160, 156 vs 52 us at 16,160).
    INCREMENTAL_MIN_PAIRS = 4096

    def __init__(self, table: IncidenceTable) -> None:
        self.table = table
        #: the link columns :attr:`backlog` was read from
        self.links: Optional[LinkColumns] = None
        #: link entries with a backlog (a superset: some may be back at 0)
        self.backlog: Set[int] = set()
        self.queue_seen = -1
        self.capacity_seen = -1
        self.layout = -1

    def rebuild(self, offered: np.ndarray, keep: bool = True) -> None:
        """Take ``offered`` (a full ``bincount`` over the table's slots) and
        recompute every link's carried rate and whether it is overloaded.
        ``keep=False``: the sums are not in pair order, so the next
        :meth:`update` rebuilds again."""
        table = self.table
        offered[IncidenceTable.SCRATCH] = 0.0
        n_slots = offered.shape[0]
        self.offered = offered
        self.layout = table.layout_version if keep else -1
        self.slot_seen = table.slot_log.version
        self.demand = table.demand_rate[: table.num_rows].copy()
        #: slot -> the link entry its load was last written for
        self.slot_entry = table.slot_link[:n_slots].copy()
        #: link entries whose slot's offered load exceeds the capacity
        self.overloaded: Set[int] = set()
        links = table.links
        if links is None:
            self.carry = np.zeros(0)
            return
        #: link entry -> min(offered, capacity) of its slot (0.0 without one)
        self.carry = np.zeros(links.size)
        capacity = links.capacity[self.slot_entry]
        self.carry[self.slot_entry] = np.minimum(offered, capacity)
        self.overloaded.update(self.slot_entry[offered > capacity].tolist())
        self.capacity_seen = links.capacity_log.version

    def update(self) -> None:
        """Bring the offered loads, carried rates and overloads up to date."""
        table = self.table
        n_rows = table.num_rows
        demand = table.demand_rate[:n_rows]
        links = table.links
        slots = None
        if self.layout == table.layout_version and table.pair_count >= self.INCREMENTAL_MIN_PAIRS:
            slots = table.slot_log.since(self.slot_seen)
        marked = None if links is None else links.capacity_log.since(self.capacity_seen)
        if slots is None or (links is not None and marked is None):
            self._full()
            return
        seen = self.demand
        if seen.shape[0] < n_rows:
            seen = self.demand = grown(seen, n_rows, 0.0)
        changed = np.flatnonzero(demand.view(np.int64) != seen[:n_rows].view(np.int64))
        if changed.shape[0] > self.FULL_FRACTION * n_rows:
            self._full()
            return
        dirty = set(slots)
        if changed.shape[0]:
            seen[changed] = demand[changed]
            dirty.update(table.pair_link[table.pairs_of(changed)].tolist())
        if marked:
            entries = np.asarray(marked, dtype=np.intp)
            entries = entries[entries < table.link_slot.shape[0]]
            dirty.update(table.link_slot[entries].tolist())
        self.slot_seen = table.slot_log.version
        dirty.discard(IncidenceTable.SCRATCH)
        if links is not None:
            self.capacity_seen = links.capacity_log.version
        if not dirty:
            return

        n_slots = table.num_slots
        if self.offered.shape[0] < n_slots:
            self.offered = grown(self.offered, n_slots, 0.0)
            self.slot_entry = grown(self.slot_entry, n_slots, 0)
        slot_rows = table.slot_rows
        index = sorted(dirty)
        rows: List[int] = []
        bins: List[int] = []
        for k, slot in enumerate(index):
            on_slot = slot_rows[slot]
            rows.extend(on_slot)
            bins.extend([k] * len(on_slot))
        index = np.asarray(index, dtype=np.intp)
        offered = np.bincount(bins, weights=demand[rows], minlength=index.shape[0])
        self.offered[index] = offered
        if links is None:
            return
        if self.carry.shape[0] < links.size:
            self.carry = grown(self.carry, links.size, 0.0)
        entries = table.slot_link[index]
        before = self.slot_entry[index]
        overloaded = self.overloaded
        gone = before[entries != before]
        if gone.shape[0]:
            # Retired slots: their links carry nothing here any more.
            self.carry[gone] = 0.0
            overloaded.difference_update(gone.tolist())
        self.slot_entry[index] = entries
        capacity = links.capacity[entries]
        self.carry[entries] = np.minimum(offered, capacity)
        for entry, is_over in zip(entries.tolist(), (offered > capacity).tolist()):
            if is_over:
                overloaded.add(entry)
            else:
                overloaded.discard(entry)

    def _full(self) -> None:
        table = self.table
        pairs = table.pair_count
        self.rebuild(
            np.bincount(
                table.pair_link[:pairs],
                weights=table.demand_rate[table.pair_flow[:pairs]],
                minlength=table.num_slots,
            )
        )

    def integrate(self, dt: float) -> None:
        """Carried bytes on every link, the queue step where it moves."""
        table = self.table
        links = table.links
        if links is None:
            return
        carry = self.carry
        increment = carry * dt
        increment /= 8.0
        links.carried[: carry.shape[0]] += increment

        log = links.queue_log
        backlog = self.backlog
        marked = log.since(self.queue_seen) if links is self.links else None
        if marked is None:
            self.links = links
            backlog = set(np.flatnonzero(links.queue > 0.0).tolist())
        else:
            backlog.update(marked)
        moving = backlog | self.overloaded
        if not moving:
            self.backlog = backlog
            self.queue_seen = log.version
            return
        index = np.fromiter(moving, np.intp, len(moving))
        link_slot = table.link_slot
        slots = np.zeros(index.shape[0], dtype=np.intp)
        mapped = index < link_slot.shape[0]
        slots[mapped] = link_slot[index[mapped]]
        offered = self.offered[slots]
        capacity = links.capacity[index]
        queue = links.queue[index] + (offered - capacity) * dt / 8.0
        over = queue > links.buffer[index]
        if over.any():
            lost = index[over]
            links.loss_flag[lost] = True
            links.loss_events[lost] += 1
            queue[over] = links.buffer[lost]
        queue = np.where(queue > 0.0, queue, 0.0)
        links.queue[index] = queue
        held = set(index[queue > 0.0].tolist())
        for entry in held - backlog:
            # A new backlog: other readers of these columns hear of it too.
            log.mark(entry)
        self.backlog = held
        self.queue_seen = log.version


class TransportModelLike:
    """Protocol documenting what the fabric expects from a transport model."""

    #: ``flow.transport_state`` keys the fabric's table keeps in row columns
    transport_columns: Tuple[str, ...] = ()

    def attach(self, fabric: FabricSimulator) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_flow_start(self, flow: Flow, now: float) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_flow_finish(self, flow: Flow, now: float) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_flow_rerouted(self, flow: Flow, now: float, reason: str = "policy") -> None:
        """Optional hook: a flow moved to a new path (default: no reaction)."""

    def update_rates(self, flows: Sequence[Flow], now: float) -> None:  # pragma: no cover
        raise NotImplementedError
