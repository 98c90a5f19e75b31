"""Vectorized max-min water-filling on the persistent link×flow incidence table.

This module hosts :class:`DeltaWaterFiller`, the water-filler
:func:`repro.network.fluid.max_min_shares` uses from
:data:`~repro.network.fluid.AUTO_NUMPY_MIN_FLOWS` flows up.  It runs the
same rounds as the pure-Python filler — identical round structure, freeze
order and tie-breaking — with each round a handful of numpy reductions over
flow-major COO index arrays, so a round costs O(nnz) C-speed work rather
than O(L·F) interpreter work.

On flow arrival or departure it re-solves only the *connected component* of
the link×flow incidence graph that the change touches.  Max-min allocations
decompose exactly per connected component (a component's links carry only
component flows, so progressive filling never moves capacity across
components), which makes the component-local solve equal to the full solve
on the component rows — not an approximation.  Dirty seeds come from the
table alone: the rows appended since the last solve, the slots its
``slot_log`` names, and the runtime-mutable inputs that changed (priority
weights and link capacities, named by the change logs their column setters
write, and demand caps, compared as one row-aligned vector).  When the
dirty component exceeds :data:`MAX_DIRTY_FRACTION` of the live flows the
filler falls back to one full solve — incrementality only pays on sparse
churn.

The filler runs on the cache's *persistent*
:class:`~repro.network.incidence.IncidenceTable`, so a churn event costs
O(path length) table maintenance + O(component) solve instead of O(nnz)
rebuild + O(nnz · rounds) solve.  Below :data:`SCALAR_MAX_PAIRS` (incidence)
pairs it runs :func:`_waterfill_scalar` instead of the array kernel
(:func:`_waterfill_kernel`), the same rounds on Python floats, which gives
the same rates bit for bit without numpy's fixed cost per call.

Equivalence with the Python filler (within 1e-9 relative) is enforced by
``tests/network/test_fluid_equivalence.py`` and
``tests/network/test_fluid_incremental.py``; the only differences are
floating-point summation order inside a round (numpy ``bincount`` vs Python
``sum``) and simultaneous-vs-sequential freezing of *exactly tied*
bottleneck links, both of which perturb results at machine epsilon only.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.network.incidence import IncidenceCache, IncidenceTable
from repro.network.topology import grown

#: The incremental path abandons its BFS and falls back to a full solve when
#: the dirty component exceeds this fraction of the live flows — beyond it the
#: component solve approaches full-solve cost while paying extraction
#: overhead on top (measured in benchmarks/test_bench_kernel_microbench.py).
MAX_DIRTY_FRACTION = 0.25

#: Problems with fewer (incidence) pairs than this are solved by
#: :func:`_waterfill_scalar`, larger ones by :func:`_waterfill_kernel`: the
#: crossover measured by ``test_bench_scalar_kernel_crossover`` in
#: benchmarks/test_bench_kernel_microbench.py.
SCALAR_MAX_PAIRS = 256

_INF = float("inf")


def _waterfill_kernel(
    pair_flow: "np.ndarray",
    pair_link: "np.ndarray",
    w: "np.ndarray",
    cap: "np.ndarray",
    link_cap: "np.ndarray",
) -> Tuple["np.ndarray", int]:
    """Progressive filling over COO arrays; returns (rates, rounds).

    ``w``/``cap`` are per-row weight and demand cap (rows with ``cap <= 0``
    freeze at 0 immediately — tombstoned rows enter that way), ``link_cap``
    per-slot capacity (``inf`` slots can never bottleneck).  The round
    structure mirrors the pure-Python solver exactly: find the global
    bottleneck share, freeze cap-limited flows first, then freeze the flows
    on all bottleneck links, a flow on several freezing links taking the
    share of the first link in slot order.
    """
    num_flows = w.shape[0]
    num_links = link_cap.shape[0]
    rate = np.zeros(num_flows, dtype=np.float64)
    frozen = cap <= 0.0

    pair_w = w[pair_flow]
    rounds = 0
    max_rounds = num_flows + num_links + 1
    for _round in range(max_rounds):
        live = ~frozen
        if not live.any():
            break
        rounds += 1
        live_pair = live[pair_flow]
        weight_sum = np.bincount(
            pair_link, weights=np.where(live_pair, pair_w, 0.0), minlength=num_links
        )
        used = np.bincount(pair_link, weights=rate[pair_flow], minlength=num_links)
        remaining = np.maximum(link_cap - used, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(weight_sum > 0.0, remaining / weight_sum, np.inf)
        bottleneck = float(share.min()) if num_links else float("inf")
        if bottleneck == float("inf"):
            # No capacity constraint applies; every remaining flow takes its cap.
            rate[live] = cap[live]
            break

        # Any flow whose cap is below its would-be share freezes at the cap.
        capped = live & (cap < bottleneck * w - 1e-12)
        if capped.any():
            rate[capped] = cap[capped]
            frozen |= capped
            continue

        # Freeze the live flows on (all) bottleneck links at their share.  A
        # flow on several freezing links takes the share of the first one in
        # link order — the same link the Python solver's dict iteration
        # freezes it on.
        freeze_link = (weight_sum > 0.0) & (share <= bottleneck + 1e-9)
        sel = freeze_link[pair_link] & live_pair
        if sel.any():
            first_link = np.full(num_flows, num_links, dtype=np.intp)
            np.minimum.at(first_link, pair_flow[sel], pair_link[sel])
            to_freeze = first_link < num_links
            rate[to_freeze] = share[first_link[to_freeze]] * w[to_freeze]
            frozen |= to_freeze
        else:  # pragma: no cover - defensive, mirrors the Python solver
            rate[live] = np.minimum(cap[live], bottleneck * w[live])
            break
    return rate, rounds


def _waterfill_scalar(
    pair_flow: Sequence[int],
    pair_link: Sequence[int],
    w: Sequence[float],
    cap: Sequence[float],
    link_cap: Sequence[float],
) -> Tuple[List[float], int]:
    """:func:`_waterfill_kernel` on Python floats; returns (rates, rounds).

    The same rounds with the same arithmetic, so the same rates bit for bit
    and the same round count, for non-negative caps, positive weights and
    capacities that are not NaN:

    * a link's weight and rate sums add their terms one at a time in pair
      order, starting from 0.0, as ``bincount`` does;
    * flows are capped against the bottleneck share at the round's start;
    * every link at the bottleneck freezes its unfrozen flows at its
      round-start share, all at once, and a flow on several of them takes
      the share of the first in link order.

    Two shortcuts keep the sums exact.  A link's sums are re-added only
    after a flow on it froze, since otherwise they add up the same terms.
    The 0.0 terms the array kernel adds (for a frozen flow's weight and an
    unfrozen flow's rate) are skipped, since adding 0.0 to a sum of
    non-negative terms leaves its bits as they are.
    """
    num_flows = len(w)
    num_links = len(link_cap)
    on_link: List[List[int]] = [[] for _ in range(num_links)]
    links_of: List[List[int]] = [[] for _ in range(num_flows)]
    for f, l in zip(pair_flow, pair_link):
        on_link[l].append(f)
        links_of[f].append(l)
    rate = [0.0] * num_flows
    live = [not c <= 0.0 for c in cap]
    unfrozen = [f for f in range(num_flows) if live[f]]
    # Only a flow with a finite cap can be capped: inf < x is never true.
    cappable = [f for f in unfrozen if cap[f] != _INF]
    weight_sum = [0.0] * num_links
    share = [_INF] * num_links
    stale: Iterable[int] = range(num_links)
    rounds = 0
    for _round in range(num_flows + num_links + 1):
        if not unfrozen:
            break
        rounds += 1
        for l in stale:
            ws = 0.0
            used = 0.0
            for f in on_link[l]:
                if live[f]:
                    ws += w[f]
                else:
                    used += rate[f]
            weight_sum[l] = ws
            remaining = link_cap[l] - used
            if remaining < 0.0:
                remaining = 0.0
            share[l] = remaining / ws if ws > 0.0 else _INF
        bottleneck = min(share) if num_links else _INF
        if bottleneck == _INF:
            # No capacity constraint applies; every remaining flow takes its cap.
            for f in unfrozen:
                rate[f] = cap[f]
            break

        # Any flow whose cap is below its would-be share freezes at the cap.
        stale = set()
        if cappable:
            cappable = [f for f in cappable if live[f]]
            capped = [f for f in cappable if cap[f] < bottleneck * w[f] - 1e-12]
            if capped:
                for f in capped:
                    rate[f] = cap[f]
                    live[f] = False
                    stale.update(links_of[f])
                unfrozen = [f for f in unfrozen if live[f]]
                continue

        # Freeze the live flows on (all) bottleneck links at their share (a
        # link without live flows has share inf).
        threshold = bottleneck + 1e-9
        froze: Dict[int, float] = {}
        for l, at in enumerate(share):
            if at <= threshold and weight_sum[l] > 0.0:
                for f in on_link[l]:
                    if live[f] and f not in froze:
                        froze[f] = at
        if not froze:  # pragma: no cover - defensive, mirrors the array kernel
            for f in unfrozen:
                c = cap[f]
                x = bottleneck * w[f]
                rate[f] = c if c <= x else x
            break
        for f, at in froze.items():
            rate[f] = at * w[f]
            live[f] = False
            stale.update(links_of[f])
        unfrozen = [f for f in unfrozen if live[f]]
    return rate, rounds


def _waterfill(
    pair_flow: Union[List[int], "np.ndarray"],
    pair_link: Union[List[int], "np.ndarray"],
    w: "np.ndarray",
    cap: "np.ndarray",
    link_cap: "np.ndarray",
) -> Tuple["np.ndarray", int]:
    """Progressive filling with the kernel that is faster at this size:
    :func:`_waterfill_scalar` below :data:`SCALAR_MAX_PAIRS` pairs, else
    :func:`_waterfill_kernel`.  Both give the same bits; the rates come back
    as an array either way."""
    if len(pair_flow) < SCALAR_MAX_PAIRS:
        rate, rounds = _waterfill_scalar(
            pair_flow if isinstance(pair_flow, list) else pair_flow.tolist(),
            pair_link if isinstance(pair_link, list) else pair_link.tolist(),
            w.tolist(),
            cap.tolist(),
            link_cap.tolist(),
        )
        return np.array(rate, dtype=np.float64), rounds
    return _waterfill_kernel(
        np.asarray(pair_flow, dtype=np.intp),
        np.asarray(pair_link, dtype=np.intp),
        w,
        cap,
        link_cap,
    )


class RowRates(Mapping):
    """``flow_id -> rate`` over a row-aligned rate vector of an incidence table.

    What :class:`DeltaWaterFiller` solves return instead of a dict: ``rates``
    is a copy of the solved vector (entry ``row`` is the rate of the flow in
    that row), so a caller bound to the same table can write it into the
    row columns without a per-flow loop.  Lookups by flow id go through the
    table's live ``row_of``, so the mapping is valid until the table's flow
    set next changes.
    """

    __slots__ = ("table", "rates", "_row_of", "_values")

    def __init__(self, table: IncidenceTable, rates: "np.ndarray") -> None:
        self.table = table
        self.rates = rates
        self._row_of = table.row_of
        self._values: Optional[List[float]] = None

    def __getitem__(self, flow_id: int) -> float:
        values = self._values
        if values is None:
            values = self._values = self.rates.tolist()
        return values[self._row_of[flow_id]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._row_of)

    def __len__(self) -> int:
        return len(self._row_of)


class DeltaWaterFiller:
    """Incremental max-min solver bound to one :class:`IncidenceCache`.

    The filler keeps row/slot-aligned copies of every solver input (weights,
    effective demand caps, effective link capacities) plus the last rate
    vector, all aligned with the cache's table as it stood at the last
    solve, and on each solve:

    1. seeds a dirty set from the table alone: the live rows appended since
       the last solve, and the live slots whose row lists the table's
       ``slot_log`` names (arrivals, departures and reroutes mark every slot
       of the path).  Demand caps come in as one row-aligned vector and are
       compared with the last solve's in one go; weights and capacities are
       compared where their change logs say they were written
       (``IncidenceTable.weight_log``, ``LinkColumns.capacity_log``).  Every
       difference is a seed too.  A different table (the cache was
       cleared), a slot log that no longer reaches back (a compaction resets
       it) or more changed caps than a component may hold make the solve a
       full one;
    2. grows the dirty set to the full connected component of the incidence
       graph (the unit on which max-min decomposes exactly), aborting early
       to a full solve past :data:`MAX_DIRTY_FRACTION`;
    3. solves only the component, with :func:`_waterfill_scalar` below
       :data:`SCALAR_MAX_PAIRS` pairs and the array kernel above, on inputs
       that keep the global row and slot order so tie-breaking matches the
       full solve bit for bit, and merges the component rates into the kept
       vector, which every solve returns as a :class:`RowRates`.

    ``app_limit_bps`` is treated as immutable after a flow starts (nothing in
    the runtime mutates it; it is an admission-time property), which is what
    lets the per-solve verification stop at weights + caps + capacities.
    """

    def __init__(self, cache: IncidenceCache) -> None:
        self.cache = cache
        cache.delta = self

        #: the table the kept vectors are aligned with (None: none yet)
        self._table: Optional[IncidenceTable] = None
        self._rate_row: Optional[np.ndarray] = None
        self._w_row: Optional[np.ndarray] = None
        self._cap_row: Optional[np.ndarray] = None
        self._linkcap_slot: Optional[np.ndarray] = None
        #: the row-aligned demand caps of the last solve (None: it had none)
        self._caps: Optional[np.ndarray] = None
        #: where the copies stand: the table's rows and slot-log version, the
        #: weight-log and capacity-log versions they have read up to, the
        #: link columns of that log and the slots the capacity copy covers
        self._rows_seen = 0
        self._churn_seen = -1
        self._weights_seen = -1
        self._capacities_seen = -1
        self._links_seen = None
        self._slots_seen = 0
        # Perf counters (exported as kernel extras via MetricsCollector).
        self.solves_full = 0
        self.solves_incremental = 0
        self.solves_noop = 0
        self.fallback_large_region = 0
        self.fallback_stale = 0
        self.kernel_rounds = 0
        self.dirty_rows_total = 0
        self.dirty_rows_max = 0

    @classmethod
    def attach(cls, cache: IncidenceCache) -> "DeltaWaterFiller":
        """The cache's filler, creating one on first use."""
        if cache.delta is None:
            cls(cache)
        return cache.delta

    def _go_cold(self) -> None:
        """Forget the table: the next solve is a full one."""
        self._table = None

    # -- stats ---------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        out = {
            "solves_full": float(self.solves_full),
            "solves_incremental": float(self.solves_incremental),
            "solves_noop": float(self.solves_noop),
            "fallback_large_region": float(self.fallback_large_region),
            "fallback_stale": float(self.fallback_stale),
            "solver_rounds": float(self.kernel_rounds),
            "dirty_rows_total": float(self.dirty_rows_total),
            "dirty_rows_max": float(self.dirty_rows_max),
        }
        if self.cache._table is not None:
            out.update(self.cache.table().stats())
        return out

    # -- solving -------------------------------------------------------------------
    def solve(self, demand_caps: Optional[Mapping[int, float]] = None) -> RowRates:
        """Max-min rates for the cache's flows, incrementally when the state
        allows.

        ``demand_caps`` is keyed by flow id, or a :class:`RowRates` of the
        cache's table.  The caller vouches that the flows it solves for are
        the cache's (:func:`repro.network.fluid.max_min_shares` checks).
        """
        table = self.cache.table()
        caps = self._caps_vector(table, demand_caps)
        churned = None
        if table is self._table:
            churned = table.slot_log.since(self._churn_seen)
        if churned is None:
            return self._solve_full(table, caps)

        n_rows = table.num_rows
        row_flows = table.row_flows
        # Grow the copies for rows appended since the last solve, by a
        # quarter at a time as the table's columns grow.
        if self._w_row.shape[0] < n_rows:
            self._w_row = grown(self._w_row, n_rows, 1.0)
            self._cap_row = grown(self._cap_row, n_rows, 0.0)
            self._rate_row = grown(self._rate_row, n_rows, 0.0)

        # 1. Churn seeds: the live rows appended since, and the live slots
        # whose row lists changed.
        added = [row for row in range(self._rows_seen, n_rows) if row_flows[row] is not None]
        link_slots = table.link_slots
        dirty_slots: Set[int] = {slot for slot in churned if link_slots[slot] is not None}
        dirty_rows: Set[int] = set()

        # 2. Verify the runtime-mutable inputs; differences become seeds.
        self._verify_weights(table, added, dirty_rows)

        # Demand caps: the rows whose cap differs from the last solve's, and
        # the rows appended since, which had none.
        old = self._caps
        if caps is None and old is None:
            changed = np.asarray(added, dtype=np.intp)
        else:
            seen = self._rows_seen
            before = _INF if old is None else old[:seen]
            after = _INF if caps is None else caps[:seen]
            differs = table.live[:n_rows].copy()
            # Two NaNs are the same cap (``!=`` alone would dirty the row at
            # every solve); ``-0.0`` and ``0.0`` stay equal.
            differs[:seen] &= (before != after) & ~(np.isnan(before) & np.isnan(after))
            changed = np.flatnonzero(differs)
        if changed.size > self._region_limit(table):
            # More dirty rows than a component may hold (TCP: nearly every
            # window moved; SCDA: a control round's new allocations), so the
            # component search would stop at its first check and fall back.
            self.fallback_large_region += 1
            return self._solve_full(table, caps)
        if changed.size:
            dirty_rows.update(changed.tolist())
            self._cap_row[changed] = self._solved_caps(
                table, _INF if caps is None else caps[changed], changed
            )
        self._caps = caps

        self._verify_capacities(table, dirty_slots)

        if not dirty_rows and not dirty_slots:
            self.solves_noop += 1
            self._finish_bookkeeping(table)
            return RowRates(table, self._rate_row[:n_rows].copy())

        # 3. Close over the connected component; bail out when it gets large.
        component = self._component_of(table, dirty_rows, dirty_slots)
        if component is None:
            self.fallback_large_region += 1
            return self._solve_full(table, caps)
        comp_rows, comp_slots = component
        self._solve_component(table, comp_rows, comp_slots)
        self.solves_incremental += 1
        self.dirty_rows_total += len(comp_rows)
        if len(comp_rows) > self.dirty_rows_max:
            self.dirty_rows_max = len(comp_rows)
        self._finish_bookkeeping(table)
        return RowRates(table, self._rate_row[:n_rows].copy())

    # -- input verification ----------------------------------------------------------
    def _verify_weights(
        self, table: IncidenceTable, added: List[int], dirty_rows: Set[int]
    ) -> None:
        """Dirty the rows whose weight changed since the last solve.

        The rows to look at are the ones the table's weight log names (bound
        flows' weight writes, rows that died) plus the rows added since.
        With a log that does not reach back, every row is compared.  A live
        row with a non-positive weight raises, as a full solve would.
        """
        n_rows = table.num_rows
        log = table.weight_log
        row_flows = table.row_flows
        marked = log.since(self._weights_seen)
        if marked is not None and len(marked) <= n_rows // 8:
            # A few rows: their weights one at a time, the same product.
            weight = table.priority_weight
            multiplicity = table.multiplicity
            snapshot = self._w_row
            current = [
                (row, weight.item(row) * multiplicity.item(row))
                for row in sorted(set(marked).union(added))
            ]
            for row, value in current:
                if value <= 0.0 and row_flows[row] is not None:
                    raise ValueError(
                        f"flow {row_flows[row].flow_id} has non-positive weight {value}"
                    )
            for row, value in current:
                if value != snapshot.item(row):
                    dirty_rows.add(row)
                    snapshot[row] = value
            self._weights_seen = log.version
            return
        cur_w = table.priority_weight[:n_rows] * table.multiplicity[:n_rows]
        bad = np.flatnonzero(cur_w <= 0.0)
        if bad.size:
            row = int(bad[0])
            if row_flows[row] is not None:
                raise ValueError(
                    f"flow {row_flows[row].flow_id} has non-positive weight {cur_w[row]}"
                )
        changed = np.flatnonzero(cur_w != self._w_row[:n_rows])
        if changed.size:
            dirty_rows.update(changed.tolist())
        self._w_row[:n_rows] = cur_w
        self._weights_seen = log.version

    def _verify_capacities(self, table: IncidenceTable, dirty_slots: Set[int]) -> None:
        """Dirty the live slots whose effective capacity changed since the last solve.

        The slots to look at are the ones added since, and those of the links
        the link columns' capacity log names.  With a log that does not reach
        back, every slot is compared.
        """
        n_slots = table.num_slots
        links = table.links
        marked = None
        if links is not None and links is self._links_seen:
            marked = links.capacity_log.since(self._capacities_seen)
            if marked is not None and not marked and n_slots == self._slots_seen:
                return
        if marked is None or len(marked) > n_slots // 8:
            slots = np.arange(n_slots)
            cur = table.link_capacities()
        else:
            if marked:
                entries = np.unique(np.asarray(marked, dtype=np.intp))
                entries = entries[entries < table.link_slot.shape[0]]
                known = table.link_slot[entries]
                known = known[(known > 0) & (known < self._slots_seen)]
            else:
                known = np.zeros(0, dtype=np.intp)
            slots = np.concatenate((known, np.arange(self._slots_seen, n_slots)))
            cur = table.link_capacities(slots=slots)
        if self._linkcap_slot.shape[0] < n_slots:
            self._linkcap_slot = grown(self._linkcap_slot, n_slots, _INF)
        changed = slots[cur != self._linkcap_slot[slots]]
        link_slots = table.link_slots
        for slot in changed.tolist():
            if link_slots[slot] is not None:
                dirty_slots.add(slot)
        self._linkcap_slot[slots] = cur
        self._slots_seen = n_slots
        self._links_seen = links
        self._capacities_seen = -1 if links is None else links.capacity_log.version

    # -- helpers -------------------------------------------------------------------
    @staticmethod
    def _caps_vector(
        table: IncidenceTable, demand_caps: Optional[Mapping[int, float]]
    ) -> Optional[np.ndarray]:
        """``demand_caps`` as a vector aligned with ``table``'s rows, inf for
        a flow without a cap; None when there are no caps."""
        if not demand_caps:
            return None
        if isinstance(demand_caps, RowRates) and demand_caps.table is table:
            return demand_caps.rates.copy()
        row_of = table.row_of
        rows, values = [], []
        for fid, cap in demand_caps.items():
            row = row_of.get(fid)
            if row is not None:
                rows.append(row)
                values.append(cap)
        caps = np.full(table.num_rows, _INF)
        caps[rows] = values
        return caps

    @staticmethod
    def _solved_caps(
        table: IncidenceTable, cap: Union[float, np.ndarray], rows: np.ndarray
    ) -> np.ndarray:
        """The caps the flows at ``rows`` are solved with: ``cap`` (their
        demand caps, or inf for none) lowered to their aggregate app limit,
        0 for a pathless flow, and 0 where that is NaN or not positive."""
        app_limit = table.app_limit[rows]
        cap = np.where(app_limit < cap, app_limit, cap)
        cap[table.row_stop[rows] == table.row_start[rows]] = 0.0
        return np.where(cap > 0.0, cap, 0.0)

    def _finish_bookkeeping(self, table: IncidenceTable) -> None:
        self._rows_seen = table.num_rows
        self._churn_seen = table.slot_log.version

    @staticmethod
    def _region_limit(table: IncidenceTable) -> int:
        """Dirty rows past which a solve falls back to a full one."""
        return max(64, int(MAX_DIRTY_FRACTION * table.live_rows))

    def _component_of(
        self,
        table: IncidenceTable,
        seed_rows: Set[int],
        seed_slots: Set[int],
    ) -> Optional[Tuple[List[int], List[int]]]:
        """BFS closure of the seeds over the bipartite incidence graph.

        Rows reach their slots through their pair spans, and slots their rows
        through the table's per-slot row lists.  Returns ``(rows, slots)``
        sorted ascending, or None when the region exceeds the fallback
        threshold (the BFS aborts as soon as it does, so a dense region costs
        O(threshold), not O(component)).
        """
        limit = self._region_limit(table)
        row_flows = table.row_flows
        slot_rows = table.slot_rows
        pair_slots = table.pair_slots
        row_start = table.row_start
        row_stop = table.row_stop
        scratch = table.SCRATCH
        rows: Set[int] = set()
        slots: Set[int] = set(seed_slots)
        row_frontier: List[int] = [r for r in seed_rows if row_flows[r] is not None]
        slot_frontier: List[int] = list(seed_slots)
        rows.update(row_frontier)
        while row_frontier or slot_frontier:
            if len(rows) > limit:
                return None
            for row in row_frontier:
                for slot in pair_slots[row_start.item(row) : row_stop.item(row)]:
                    if slot != scratch and slot not in slots:
                        slots.add(slot)
                        slot_frontier.append(slot)
            row_frontier = []
            for slot in slot_frontier:
                for row in slot_rows[slot]:
                    if row not in rows:
                        rows.add(row)
                        row_frontier.append(row)
                        if len(rows) > limit:
                            return None
            slot_frontier = []
        return sorted(rows), sorted(slots)

    def _solve_component(
        self, table: IncidenceTable, rows: List[int], slots: List[int]
    ) -> None:
        """Solve one component and merge its rates into the kept vector.

        The component's pairs are listed slot by slot, each slot's rows in
        pair order, with rows and slots numbered in ascending global order.
        Every link thus sums its terms in the full solve's order and ties
        break as they do there, so the merged rate vector is bit-identical to
        what a full solve over the whole table would produce for these rows.
        """
        if not rows:
            return
        local = {row: i for i, row in enumerate(rows)}
        slot_rows = table.slot_rows
        pair_flow: List[int] = []
        pair_link: List[int] = []
        for j, slot in enumerate(slots):
            on_slot = slot_rows[slot]
            pair_flow.extend([local[row] for row in on_slot])
            pair_link.extend([j] * len(on_slot))
        row_idx = np.asarray(rows, dtype=np.intp)
        w_loc = self._w_row[row_idx]
        cap_loc = self._cap_row[row_idx]
        linkcap_loc = self._linkcap_slot[np.asarray(slots, dtype=np.intp)]
        rate_loc, rounds = _waterfill(pair_flow, pair_link, w_loc, cap_loc, linkcap_loc)
        self.kernel_rounds += rounds
        self._rate_row[row_idx] = rate_loc

    def _solve_full(self, table: IncidenceTable, caps: Optional[np.ndarray]) -> RowRates:
        """One full solve over the persistent table with the row-aligned
        ``caps`` (None: no caps); refreshes every copy."""
        n_rows = table.num_rows
        row_flows = table.row_flows

        w = table.priority_weight[:n_rows] * table.multiplicity[:n_rows]
        live_bad = [
            r for r in np.nonzero(w <= 0.0)[0] if row_flows[int(r)] is not None
        ]
        if live_bad:
            r = int(live_bad[0])
            raise ValueError(
                f"flow {row_flows[r].flow_id} has non-positive weight {w[r]}"
            )
        live = np.flatnonzero(table.live[:n_rows])
        cap = np.zeros(n_rows)
        cap[live] = self._solved_caps(table, _INF if caps is None else caps[live], live)
        link_cap = table.link_capacities()
        rate, rounds = _waterfill(
            table.pair_flow[: table.pair_count],
            table.pair_link[: table.pair_count],
            w,
            cap,
            link_cap,
        )
        self.kernel_rounds += rounds
        self.solves_full += 1

        self._table = table
        self._rate_row = rate
        self._w_row = w
        self._cap_row = cap
        self._linkcap_slot = link_cap
        self._caps = caps
        links = table.links
        self._weights_seen = table.weight_log.version
        self._links_seen = links
        self._capacities_seen = -1 if links is None else links.capacity_log.version
        self._slots_seen = link_cap.shape[0]
        self._finish_bookkeeping(table)
        return RowRates(table, rate.copy())
