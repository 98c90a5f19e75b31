"""The shared link×flow incidence cache.

Every allocation-time computation — the water-filler, link utilisation,
feasibility and fairness checks, and the SCDA control round — needs the same
link→flows map, and before this module each of them re-derived it from
scratch by walking ``flow.path`` for every active flow.  :class:`IncidenceCache`
builds that map once per *flow-set epoch* and updates it incrementally on
flow arrival, departure and reroute, so a control round touching F flows over
L links costs O(path length) per membership change instead of O(L·F) per
query.

For the delta water-filler (:mod:`repro.network.fluid_fast`) the cache
keeps a *persistent* :class:`IncidenceTable` (:meth:`IncidenceCache.table`),
maintained in place on every arrival/departure instead of being rebuilt
from Python dicts: removed flows tombstone their rows (their coordinate
pairs are redirected to a scratch row/slot that can never bottleneck), new
flows append, and the arrays are compacted vectorized once tombstones
outnumber live entries.  A churn event therefore costs O(path length), not
O(nnz), which is what lets the delta water-filler re-solve 100k-flow
problems in per-component time.  The table also logs the slots whose flows
changed (:attr:`IncidenceTable.slot_log`), so the filler learns which rows
and links are dirty from the table itself, without diffing flow sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.flow import BoundFlow, Flow
from repro.network.topology import ChangeLog, Link, LinkColumns, bind_handle, grown

#: Compaction of the persistent table never triggers below this many dead
#: coordinate pairs — rewriting a small table costs more than carrying them.
_COMPACT_MIN_DEAD_PAIRS = 2048


class RowState(Mapping):
    """``flow.transport_state`` of a flow bound to a table with transport
    columns: those keys read and write the flow's row, any other key a dict.

    The table replaces the view with a plain dict of the current values when
    it lets the flow go, as it hands back ``remaining_bytes``.
    """

    __slots__ = ("_flow", "_other")

    def __init__(self, flow: Flow, other: Dict[str, float]) -> None:
        self._flow = flow
        self._other = other

    def __getitem__(self, key: str) -> float:
        flow = self._flow
        if key in flow._cols.transport_columns:
            return getattr(flow._cols, key).item(flow._index)
        return self._other[key]

    def __setitem__(self, key: str, value: float) -> None:
        flow = self._flow
        if key in flow._cols.transport_columns:
            getattr(flow._cols, key)[flow._index] = value
        else:
            self._other[key] = value

    def __iter__(self) -> Iterator[str]:
        yield from self._flow._cols.transport_columns
        yield from self._other

    def __len__(self) -> int:
        return len(self._flow._cols.transport_columns) + len(self._other)


class IncidenceTable:
    """A persistent, incrementally-maintained link×flow coordinate table.

    Layout
    ------
    Flows occupy *rows* and links occupy *slots*; the (row, slot) incidence
    pairs live in two parallel numpy arrays ``pair_flow``/``pair_link`` in
    insertion order (flow-major: a row's pairs are contiguous, rows appear in
    ascending order).  Row 0 and slot 0 are a reserved *scratch* row/slot:

    * removing a flow redirects its pairs to ``(0, 0)`` instead of moving
      O(nnz) array elements — the scratch row solves with weight 1 and cap 0
      (frozen at rate 0 immediately), the scratch slot with capacity ``inf``
      (never a bottleneck), so tombstoned pairs are arithmetically inert;
    * a link whose last flow departs (its slot's row list empties) retires
      its slot (re-encounter later allocates a fresh slot), so dead slots
      are never referenced by live pairs.

    Once dead pairs outnumber live ones the table is compacted with
    vectorized masking/renumbering (:meth:`maybe_compact`), which keeps the
    arrays O(live) amortised; ``layout_version`` is bumped so solvers holding
    row/slot-aligned snapshots know to re-align.

    Each live slot also lists its rows in pair order (:attr:`slot_rows`), so
    a slot's sums can be re-added in the order ``bincount`` adds them, and
    the connected component of a row is walked without the link→flows
    dicts.  :attr:`slot_log` logs the slots whose lists changed and
    :attr:`weight_log` the rows whose weight was written (through the bound
    flows, or reset when a row dies), for readers that keep per-slot or
    per-row copies.

    Columns
    -------
    The table also owns the runtime state of its flows, in row-aligned
    columns (:data:`ROW_COLUMNS`): every flow it holds is bound to its row
    (see :class:`~repro.network.flow.BoundFlow`), so reading or writing
    ``flow.remaining_bytes`` reads or writes ``remaining[row]`` and the
    fabric advances every flow with array operations.  Removing a flow hands
    its values back to the flow.  ``multiplicity`` and ``app_limit`` (the
    aggregate application limit) are copies of values that never change
    while a flow holds its row.  A transport may add columns of its own
    (``transport_columns``): those keys of ``flow.transport_state`` then
    live in the row too, and the flow's ``transport_state`` is a
    :class:`RowState` view onto it.  Dead rows and the scratch row keep
    weight and multiplicity 1 and are never read as live state.  Per-slot
    ``slot_link`` maps each slot to its link's entry in the topology's
    :class:`~repro.network.topology.LinkColumns` (entry 0, the sentinel, for
    the scratch and retired slots), so link capacities are gathered, not
    cached.
    """

    SCRATCH = 0

    #: row column -> initial value of the scratch row (and of dead rows'
    #: weight and multiplicity, which solvers read as 1)
    ROW_COLUMNS = {
        "remaining": 0.0,
        "current_rate": 0.0,
        "demand_rate": 0.0,
        "priority_weight": 1.0,
        "multiplicity": 1.0,
        "app_limit": float("inf"),
    }

    def __init__(
        self, rows: int = 64, pairs: int = 64, transport_columns: Sequence[str] = ()
    ) -> None:
        """``rows``/``pairs``: initial room (the arrays grow as needed);
        ``transport_columns``: the ``flow.transport_state`` keys kept in rows."""
        rows = max(rows, 64)
        self.transport_columns = tuple(transport_columns)
        #: every row column -> the value of the scratch row and of new room
        self.row_columns = {
            **self.ROW_COLUMNS, **{name: 0.0 for name in self.transport_columns}
        }
        for name, value in self.row_columns.items():
            setattr(self, name, np.full(rows, value, dtype=np.float64))
        #: row -> whether a live flow holds the row
        self.live = np.zeros(rows, dtype=np.bool_)
        #: slot -> index of its link in :attr:`links` (0 = the sentinel)
        self.slot_link = np.zeros(64, dtype=np.intp)
        #: the link columns every slot's link is bound to
        self.links: Optional[LinkColumns] = None
        #: row -> Flow (None for the scratch row and tombstoned rows).
        self.row_flows: List[Optional[Flow]] = [None]
        #: flow_id -> row (live flows only).
        self.row_of: Dict[int, int] = {}
        #: row -> [start, stop) span into the pair arrays (row columns too).
        self.row_start = np.zeros(rows, dtype=np.intp)
        self.row_stop = np.zeros(rows, dtype=np.intp)
        #: slot -> Link (None for scratch and retired slots).
        self.link_slots: List[Optional[Link]] = [None]
        #: link_id -> slot (live links only).
        self.slot_of: Dict[str, int] = {}
        #: slot -> rows of its live pairs, in pair order (empty for scratch
        #: and retired slots; a slot retires when its list empties)
        self.slot_rows: List[List[int]] = [[]]
        #: link-columns entry -> its slot here (0 when it has none)
        self.link_slot = np.zeros(64, dtype=np.intp)
        #: slots whose row lists changed, and rows whose weight was written
        self.slot_log = ChangeLog()
        self.weight_log = ChangeLog()
        self.pair_flow = np.zeros(max(pairs, 64), dtype=np.intp)
        self.pair_link = np.zeros(max(pairs, 64), dtype=np.intp)
        #: ``pair_link[:pair_count]`` as a list, for walks that visit a few
        #: rows' spans one at a time
        self.pair_slots: List[int] = []
        self.pair_count = 0
        self.dead_pairs = 0
        self.dead_rows = 0
        self.dead_slots = 0
        #: Bumped on every compaction: row/slot indices are renumbered, so any
        #: row- or slot-aligned snapshot held outside the table is invalid.
        self.layout_version = 0
        # Maintenance counters (exported as kernel perf extras).
        self.compactions = 0
        self.pairs_appended = 0
        self.pairs_killed = 0

    # -- sizes -------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.row_flows)

    @property
    def num_slots(self) -> int:
        return len(self.link_slots)

    @property
    def live_rows(self) -> int:
        return len(self.row_of)

    @property
    def live_slots(self) -> int:
        return len(self.slot_of)

    @property
    def live_pairs(self) -> int:
        return self.pair_count - self.dead_pairs

    # -- mutation ----------------------------------------------------------------
    def _ensure_row_capacity(self, need: int) -> None:
        for name, value in self.row_columns.items():
            setattr(self, name, grown(getattr(self, name), need, value))
        self.live = grown(self.live, need, False)
        self.row_start = grown(self.row_start, need, 0)
        self.row_stop = grown(self.row_stop, need, 0)

    def bind_link(self, link: Link) -> int:
        """``link``'s entry in :attr:`links`, binding the link on first use."""
        cols = link._cols
        if cols is None:  # a free-standing link: it joins the table's columns
            cols = self.links if self.links is not None else LinkColumns()
        if self.links is None:
            self.links = cols
        elif cols is not self.links:
            raise ValueError(
                f"link {link.link_id} belongs to another topology than this table's links"
            )
        return cols.bind(link)

    def _bind(self, flow: Flow, row: int) -> None:
        """Move ``flow``'s state into ``row`` and make the flow a handle on it."""
        self.remaining[row] = flow.remaining_bytes
        self.current_rate[row] = flow.current_rate_bps
        self.demand_rate[row] = flow.demand_rate_bps
        self.priority_weight[row] = flow.priority_weight
        self.multiplicity[row] = flow.multiplicity
        self.app_limit[row] = flow.aggregate_app_limit_bps
        state = flow.transport_state
        if type(state) is RowState:  # another table's row: read it out first
            state = dict(state)
        if self.transport_columns:
            # A flow bound before its transport's start hook reads 0.0 until
            # the hook writes its values (through the view, into the row).
            for name in self.transport_columns:
                getattr(self, name)[row] = state.pop(name, 0.0)
            state = RowState(flow, state)
        flow.transport_state = state
        self.live[row] = True
        bind_handle(flow, BoundFlow, self, row)

    def _unbind(self, flow: Flow, row: int) -> None:
        """Hand ``row``'s state back to ``flow`` (unless another table took it)."""
        if flow._cols is self:
            if type(flow.transport_state) is RowState:
                flow.transport_state = dict(flow.transport_state)
            remaining = self.remaining.item(row)
            current = self.current_rate.item(row)
            demand = self.demand_rate.item(row)
            weight = self.priority_weight.item(row)
            flow.__class__ = Flow
            flow._cols = None
            flow.remaining_bytes = remaining
            flow.current_rate_bps = current
            flow.demand_rate_bps = demand
            flow.priority_weight = weight
        self.live[row] = False
        self.priority_weight[row] = 1.0
        self.multiplicity[row] = 1.0
        self.weight_log.mark(row)

    def release(self) -> None:
        """Hand every live row's state back to its flow (the table is dropped)."""
        for row, flow in enumerate(self.row_flows):
            if flow is not None:
                self._unbind(flow, row)

    def _ensure_pair_capacity(self, extra: int) -> None:
        need = self.pair_count + extra
        cap = self.pair_flow.shape[0]
        if need <= cap:
            return
        for name in ("pair_flow", "pair_link"):
            setattr(self, name, grown(getattr(self, name), need, 0))

    def add(self, flow: Flow, path: Sequence[Link]) -> int:
        """Append a row for ``flow`` over ``path`` and bind the flow to it;
        returns the row index."""
        row = len(self.row_flows)
        if row >= self.live.shape[0]:
            self._ensure_row_capacity(row + 1)
        self.row_flows.append(flow)
        self.row_of[flow.flow_id] = row
        start = self.pair_count
        self._ensure_pair_capacity(len(path))
        pf, pl = self.pair_flow, self.pair_link
        slot_rows = self.slot_rows
        for link in path:
            slot = self.slot_of.get(link.link_id)
            if slot is None:
                slot = len(self.link_slots)
                if slot >= self.slot_link.shape[0]:
                    self.slot_link = grown(self.slot_link, slot + 1, 0)
                entry = self.bind_link(link)
                self.slot_link[slot] = entry
                if entry >= self.link_slot.shape[0]:
                    self.link_slot = grown(self.link_slot, entry + 1, 0)
                self.link_slot[entry] = slot
                self.link_slots.append(link)
                slot_rows.append([])
                self.slot_of[link.link_id] = slot
            pf[self.pair_count] = row
            pl[self.pair_count] = slot
            self.pair_slots.append(slot)
            slot_rows[slot].append(row)
            self.slot_log.mark(slot)
            self.pair_count += 1
        self.row_start[row] = start
        self.row_stop[row] = self.pair_count
        self.pairs_appended += len(path)
        self._bind(flow, row)
        return row

    def remove(self, flow_id: int) -> None:
        """Tombstone the row of ``flow_id``; retire slots that lose their last pair."""
        row = self.row_of.pop(flow_id, None)
        if row is None:
            return
        self._unbind(self.row_flows[row], row)
        self.row_flows[row] = None
        self.dead_rows += 1
        start, stop = self.row_start.item(row), self.row_stop.item(row)
        if stop > start:
            for slot in self.pair_link[start:stop].tolist():
                if slot != self.SCRATCH:
                    on_slot = self.slot_rows[slot]
                    on_slot.remove(row)
                    self.slot_log.mark(slot)
                    if not on_slot:
                        link = self.link_slots[slot]
                        if link is not None:
                            del self.slot_of[link.link_id]
                            self.link_slots[slot] = None
                            self.link_slot[self.slot_link[slot]] = 0
                            self.slot_link[slot] = 0
                            self.dead_slots += 1
            self.pair_flow[start:stop] = self.SCRATCH
            self.pair_link[start:stop] = self.SCRATCH
            self.pair_slots[start:stop] = [self.SCRATCH] * (stop - start)
            killed = stop - start
            self.dead_pairs += killed
            self.pairs_killed += killed
        self.maybe_compact()

    def maybe_compact(self) -> None:
        """Compact tombstones away once they outnumber the live entries."""
        if self.dead_pairs < _COMPACT_MIN_DEAD_PAIRS:
            return
        if self.dead_pairs <= self.live_pairs and self.dead_rows <= self.live_rows:
            return
        self.compact()

    def compact(self) -> None:
        """Drop dead rows/slots/pairs and renumber, preserving relative order.

        Relative order is what makes the compacted table solve bit-identically
        to the uncompacted one: rows stay in insertion order (``pair_flow``
        remains non-decreasing), slots stay in first-encounter order, and the
        per-slot ``bincount`` reductions see the same value sequences.
        """
        # Renumber rows: scratch row 0 stays at 0, live rows close ranks; the
        # row columns and the bound flows' rows follow.
        row_map = np.zeros(len(self.row_flows), dtype=np.intp)
        new_row_flows: List[Optional[Flow]] = [None]
        kept_rows = [self.SCRATCH]
        for row, flow in enumerate(self.row_flows):
            if row == self.SCRATCH or flow is None:
                continue
            row_map[row] = len(new_row_flows)
            if flow._cols is self:
                flow._index = len(new_row_flows)
            new_row_flows.append(flow)
            kept_rows.append(row)
        for name in (*self.row_columns, "live"):
            setattr(self, name, getattr(self, name)[kept_rows])
        # Renumber slots the same way; each slot's rows keep their order.
        slot_map = np.zeros(len(self.link_slots), dtype=np.intp)
        new_link_slots: List[Optional[Link]] = [None]
        new_slot_rows: List[List[int]] = [[]]
        kept_slots = [self.SCRATCH]
        new_row_of = row_map.tolist()
        for slot, link in enumerate(self.link_slots):
            if slot == self.SCRATCH or link is None:
                continue
            slot_map[slot] = len(new_link_slots)
            new_link_slots.append(link)
            new_slot_rows.append([new_row_of[row] for row in self.slot_rows[slot]])
            kept_slots.append(slot)
        self.slot_link = self.slot_link[kept_slots]
        self.link_slot[:] = 0
        self.link_slot[self.slot_link[1:]] = np.arange(1, len(kept_slots), dtype=np.intp)
        # Filter dead pairs (they all sit on the scratch row) and remap.
        pf = self.pair_flow[: self.pair_count]
        pl = self.pair_link[: self.pair_count]
        keep = pf != self.SCRATCH
        pf = row_map[pf[keep]]
        pl = slot_map[pl[keep]]
        # Live pairs are flow-major with rows in ascending order, a property
        # preserved by the monotone renumbering — so the new spans fall out of
        # two vectorized binary searches.
        n_rows = len(new_row_flows)
        bounds = np.arange(n_rows + 1, dtype=np.intp)
        starts = np.searchsorted(pf, bounds[:-1], side="left")
        stops = np.searchsorted(pf, bounds[:-1], side="right")
        capacity = max(64, int(pf.shape[0]))
        new_pf = np.zeros(capacity, dtype=np.intp)
        new_pl = np.zeros(capacity, dtype=np.intp)
        new_pf[: pf.shape[0]] = pf
        new_pl[: pl.shape[0]] = pl

        self.row_flows = new_row_flows
        self.row_of = {f.flow_id: r for r, f in enumerate(new_row_flows) if f is not None}
        self.row_start = starts
        self.row_stop = stops
        self.link_slots = new_link_slots
        self.slot_of = {
            l.link_id: s for s, l in enumerate(new_link_slots) if l is not None
        }
        self.slot_rows = new_slot_rows
        self.pair_flow = new_pf
        self.pair_link = new_pl
        self.pair_slots = pl.tolist()
        self.pair_count = int(pf.shape[0])
        self.dead_pairs = 0
        self.dead_rows = 0
        self.dead_slots = 0
        self.layout_version += 1
        self.compactions += 1
        self.slot_log.reset()
        self.weight_log.reset()

    def pairs_of(self, rows) -> np.ndarray:
        """The pair indices of the spans of ``rows`` (an index array), row
        after row, each in path order."""
        starts = self.row_start[rows]
        lengths = self.row_stop[rows] - starts
        first = np.cumsum(lengths) - lengths
        return np.arange(int(lengths.sum()), dtype=np.intp) + np.repeat(starts - first, lengths)

    # -- solver-input gathers ------------------------------------------------------
    def link_capacities(self, slots=None):
        """Per-slot capacities, clamped at 0, fresh.

        Scratch and retired slots read ``inf`` so they can never become the
        bottleneck.  Capacities are gathered from the link columns per call
        because links mutate ``capacity_bps`` in place at runtime (SLA boosts,
        dynamics scripts).  ``slots`` (an index array) gathers only those
        slots, in that order.
        """
        n = len(self.link_slots)
        index = self.slot_link[:n] if slots is None else self.slot_link[slots]
        if self.links is None:
            caps = np.full(index.shape[0], float("inf"))
        else:
            caps = self.links.capacity[index]
        np.maximum(caps, 0.0, out=caps)
        return caps

    def stats(self) -> Dict[str, float]:
        """Maintenance counters for the kernel perf extras."""
        return {
            "table_rows": float(self.num_rows),
            "table_slots": float(self.num_slots),
            "table_pairs": float(self.pair_count),
            "table_dead_pairs": float(self.dead_pairs),
            "table_compactions": float(self.compactions),
            "table_pairs_appended": float(self.pairs_appended),
            "table_pairs_killed": float(self.pairs_killed),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IncidenceTable rows={self.live_rows}/{self.num_rows} "
            f"slots={self.live_slots}/{self.num_slots} "
            f"pairs={self.live_pairs}/{self.pair_count}>"
        )


class IncidenceCache:
    """Incrementally-maintained link→flows incidence for a set of active flows.

    The cache is the single owner of "which flows cross which links".  Flow
    membership changes bump :attr:`epoch`; the derived link→flows map is
    cached against the epoch and rebuilt lazily when stale.  The persistent
    :meth:`table` is instead *maintained* on every membership change.

    Paths are snapshotted on :meth:`add_flow` so that a reroute (which
    mutates ``flow.path`` in place) cannot silently desynchronise the cache —
    the fabric removes the flow, updates the path and re-adds it.
    """

    def __init__(
        self, flows: Iterable[Flow] = (), transport_columns: Sequence[str] = ()
    ) -> None:
        #: ``flow.transport_state`` keys the :meth:`table` keeps in row columns
        self.transport_columns = tuple(transport_columns)
        #: flow_id -> Flow, insertion ordered (the canonical flow order).
        self._flows: Dict[int, Flow] = {}
        #: flow_id -> snapshot (copy) of the path at add time.
        self._paths: Dict[int, List[Link]] = {}
        #: link_id -> Link, first-encounter ordered (the canonical link order).
        self._links: Dict[str, Link] = {}
        #: link_id -> {flow_id: Flow} (dict for O(1) removal, insertion ordered).
        self._link_flows: Dict[str, Dict[int, Flow]] = {}
        self.epoch = 0
        self._map_epoch = -1
        self._map_cache: Dict[str, List[Flow]] = {}
        self._table: Optional[IncidenceTable] = None
        #: Attachment point for a :class:`~repro.network.fluid_fast.DeltaWaterFiller`;
        #: ``max_min_shares`` solves with it from ``AUTO_NUMPY_MIN_FLOWS`` flows.
        self.delta = None
        #: A flow list the owner (the fabric) keeps in lock-step with this
        #: cache; solvers may skip the per-call membership check when handed
        #: this exact object.  See :meth:`trust_flows`.
        self.trusted_flows = None
        for flow in flows:
            self.add_flow(flow)

    # -- membership --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow: Flow) -> bool:
        return flow.flow_id in self._flows

    @property
    def flows(self) -> List[Flow]:
        """All cached flows in insertion order."""
        return list(self._flows.values())

    @property
    def links(self) -> List[Link]:
        """All links crossed by at least one cached flow at some point."""
        return list(self._links.values())

    def link_of(self, link_id: str) -> Optional[Link]:
        return self._links.get(link_id)

    def trust_flows(self, flows: List[Flow]) -> None:
        """Declare ``flows`` as a list kept in lock-step with this cache.

        The fabric updates its active-flow list and this cache together under
        every mutation, so a solver handed that exact list object does not
        need an O(F) membership re-check per call.
        """
        self.trusted_flows = flows

    def add_flow(self, flow: Flow) -> None:
        """Register ``flow`` (its current path is snapshotted)."""
        if flow.flow_id in self._flows:
            return
        self._flows[flow.flow_id] = flow
        self.trusted_flows = None
        path = list(flow.path)
        self._paths[flow.flow_id] = path
        for link in path:
            bucket = self._link_flows.get(link.link_id)
            if bucket is None:
                self._links[link.link_id] = link
                bucket = self._link_flows[link.link_id] = {}
            bucket[flow.flow_id] = flow
        self.epoch += 1
        if self._table is not None:
            self._table.add(flow, path)

    def remove_flow(self, flow: Flow) -> None:
        """Forget ``flow`` (using the path snapshotted at add time)."""
        if flow.flow_id not in self._flows:
            return
        del self._flows[flow.flow_id]
        self.trusted_flows = None
        path = self._paths.pop(flow.flow_id, [])
        for link in path:
            bucket = self._link_flows.get(link.link_id)
            if bucket is not None:
                bucket.pop(flow.flow_id, None)
                if not bucket:
                    del self._link_flows[link.link_id]
                    del self._links[link.link_id]
        self.epoch += 1
        if self._table is not None:
            self._table.remove(flow.flow_id)

    def clear(self) -> None:
        if self._table is not None:
            self._table.release()
        self._flows.clear()
        self._paths.clear()
        self._links.clear()
        self._link_flows.clear()
        self.epoch += 1
        self._table = None
        self.trusted_flows = None

    def matches(self, flows: Sequence[Flow]) -> bool:
        """True when ``flows`` is exactly the cached flow set (same paths).

        O(nnz) identity comparisons — cheap insurance (well under the cost of
        one solve) against a caller handing the solver a stale cache, e.g. a
        flow list filtered or re-routed outside the fabric's notifications.
        Paths are compared link by link, so even an equal-length ECMP reroute
        done behind the cache's back is detected.
        """
        if len(flows) != len(self._flows):
            return False
        paths = self._paths
        for flow in flows:
            snap = paths.get(flow.flow_id)
            # Link defines no __eq__, so list comparison is C-speed identity.
            if snap is None or snap != flow.path:
                return False
        return True

    def covers_ids(self, flows: Sequence[Flow]) -> bool:
        """True when ``flows`` carries exactly the cached flow ids.

        The O(F) membership half of :meth:`matches` without the O(nnz) path
        walk — the check ``max_min_shares`` runs before a delta-filler solve
        (paths are trusted to the cache's own snapshots; the fabric never
        mutates a path without re-adding the flow).
        """
        if len(flows) != len(self._flows):
            return False
        cached = self._flows
        for flow in flows:
            if flow.flow_id not in cached:
                return False
        return True

    # -- derived structures --------------------------------------------------------
    def link_flows_map(self) -> Dict[str, List[Flow]]:
        """``link_id -> [flows crossing it]`` for the current epoch (cached)."""
        if self._map_epoch != self.epoch:
            self._map_cache = {
                link_id: list(bucket.values())
                for link_id, bucket in self._link_flows.items()
            }
            self._map_epoch = self.epoch
        return self._map_cache

    def incidence_view(
        self,
    ) -> Tuple[Mapping[str, Link], Mapping[str, Mapping[int, Flow]]]:
        """The maintained ``link_id -> Link`` and ``link_id -> {flow_id: flow}``
        dicts themselves, for solvers: no per-call copy.

        Both list the links in the same first-encounter order, and each
        link's flows in the order they joined it — the order of
        :meth:`link_flows_map`.  Read only: do not mutate them, nor change
        the cache while using them.
        """
        return self._links, self._link_flows

    @property
    def built_table(self) -> Optional[IncidenceTable]:
        """The persistent table if :meth:`table` has built it, else None."""
        return self._table

    def table(self) -> IncidenceTable:
        """The persistent maintained table (built once, updated in place).

        Building it binds every cached flow to its row (see
        :class:`IncidenceTable`), and the links they cross to their
        topology's columns.
        """
        if self._table is None:
            paths = self._paths
            table = IncidenceTable(
                rows=len(self._flows) + 1,
                pairs=sum(len(p) for p in paths.values()),
                transport_columns=self.transport_columns,
            )
            for flow_id, flow in self._flows.items():
                table.add(flow, self._paths[flow_id])
            self._table = table
        return self._table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IncidenceCache flows={len(self._flows)} links={len(self._links)} "
            f"epoch={self.epoch}>"
        )
