"""Max-min fair (water-filling) bandwidth shares.

Given a set of flows with paths over capacity-limited links, and optional
per-flow demand caps, compute the max-min fair allocation by progressive
filling.  This serves three purposes:

* the *delivered* rate of TCP flows whose windows demand more than the
  network can carry (the network itself enforces a roughly fair split at the
  bottleneck),
* the idealised reference allocation against which the SCDA distributed
  allocation (equations 2-3) is validated in the tests, and
* weighted max-min for prioritized allocation (equation 6), where a flow with
  weight ``℘`` (its ``priority_weight``) receives ``℘`` times the share of a
  weight-1 flow at its bottleneck.

Two water-fillers run the same rounds, and :func:`max_min_shares` picks one
by problem size:

* below :data:`AUTO_NUMPY_MIN_FLOWS` flows, the pure-Python progressive
  filling (:func:`_max_min_shares_python`), which recomputes a link's fair
  share only after a flow crossing it froze.  The plain progressive filling
  it replaced lives on in the test tree
  (``tests/network/maxmin_reference.py``) as its bit-for-bit oracle.
  Handed TCP's row-aligned demand caps, it first checks whether they fit
  under every link with a margin; then they are provably the answer, and it
  returns them as a :class:`~repro.network.fluid_fast.RowRates` without
  running a round (see :func:`_certified_caps`).
* from there, the :class:`~repro.network.fluid_fast.DeltaWaterFiller` that
  the fabric attaches to its
  :class:`~repro.network.incidence.IncidenceCache`: the same rounds as numpy
  reductions over the cache's persistent incidence table, re-solving only
  the connected component that changed since its last solve.

A flow list the cache does not cover, or a cache without a filler, goes to
the Python filler, which then builds the link→flows incidence itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.network.flow import Flow
from repro.network.fluid_fast import DeltaWaterFiller, RowRates
from repro.network.incidence import IncidenceCache

#: Below this many flows the pure-Python filler's lower constant overhead
#: wins over the delta filler's array set-up (measured in benchmarks/; see
#: docs/PERFORMANCE.md).  The choice fixes which filler's summation order a
#: result carries, so moving it changes result bits.
AUTO_NUMPY_MIN_FLOWS = 192

#: The all-at-cap certificate's margin on every link's capacity, relative
#: (δ), and its slack per flow in bits/s (τ): see :func:`_certified_caps`.
CERTIFY_MARGIN = 1e-9
CERTIFY_SLACK_BPS = 1e-9


def max_min_shares(
    flows: Sequence[Flow],
    demand_caps: Optional[Mapping[int, float]] = None,
    cache: Optional[IncidenceCache] = None,
) -> Mapping[int, float]:
    """Compute weighted max-min fair rates for ``flows``.

    Parameters
    ----------
    flows:
        Active flows; a flow without a path gets 0.  A flow's weight is its
        ``priority_weight`` ``℘_j`` times its ``multiplicity``: at a
        saturated link the remaining capacity is split in proportion to
        weight.
    demand_caps:
        Optional per-flow upper bound (bits/s) keyed by ``flow_id`` — a flow
        never receives more than its cap (it is "bottlenecked elsewhere", and
        the unused share is redistributed, exactly the property equation 3 of
        the paper is designed to achieve).  A
        :class:`~repro.network.fluid_fast.RowRates` over the cache's table
        (what TCP hands over once the fabric's table exists) is read as
        row-aligned columns instead of one lookup per flow.
    cache:
        Optional :class:`~repro.network.incidence.IncidenceCache` covering
        exactly ``flows`` — reuses the link→flows incidence instead of
        rebuilding it.  From :data:`AUTO_NUMPY_MIN_FLOWS` flows its
        :class:`~repro.network.fluid_fast.DeltaWaterFiller` (``cache.delta``)
        solves, if it has one and covers ``flows``; a list it does not cover
        adds 1 to the filler's ``fallback_stale`` and goes to the Python
        filler without the cache.

    Returns
    -------
    Mapping
        ``flow_id -> rate`` in bits/s: a dict, or a
        :class:`~repro.network.fluid_fast.RowRates` view that stays valid
        until the cache's flow set next changes.  The delta filler always
        returns the view; the Python filler returns it when ``demand_caps``
        is a ``RowRates`` that certifiably fits every link
        (:func:`_certified_caps`).  A view lists its flows in table row
        order, which after a reroute differs from the order of ``flows``.

    Notes
    -----
    Standard progressive-filling: repeatedly find the link whose fair share
    per unit weight is smallest, freeze the flows crossing it at that share,
    remove them, and continue.  Flows capped below their fair share are frozen
    at their cap first.  At most min(L, F) rounds; each round is O(L + F)
    plus the links a freeze touched in the Python filler, and O(nnz)
    vectorized in the delta filler.
    """
    if len(flows) >= AUTO_NUMPY_MIN_FLOWS and cache is not None and cache.delta is not None:
        # The fabric's lock-step list is trusted outright; any other list
        # pays one O(F) id sweep.
        if flows is cache.trusted_flows or cache.covers_ids(flows):
            return cache.delta.solve(demand_caps)
        cache.delta.fallback_stale += 1
        cache = None
    return _max_min_shares_python(flows, demand_caps, cache)


def _max_min_shares_python(
    flows: Sequence[Flow],
    demand_caps: Optional[Mapping[int, float]] = None,
    cache: Optional[IncidenceCache] = None,
) -> Mapping[int, float]:
    """Progressive filling with memoized link shares.

    Runs the rounds of the plain progressive filling it replaced (kept as
    the test oracle ``max_min_shares_reference`` in
    ``tests/network/maxmin_reference.py``) and returns the same dict bit for
    bit, without its repeated work: each flow's cap and weight
    are read once per solve, and each link keeps its fair share per unit
    weight and its unfrozen flows until a flow crossing it freezes.  A
    recompute sums the same values in the same (link bucket) order as the
    reference, never a running total: Python 3.12's ``sum`` of floats is
    compensated, so only the same ``sum`` over the same sequence gives the
    same bits.  The freezing pass walks the links in order and recomputes a
    link that an earlier freeze of the same pass made stale before testing
    it, as the reference does by recomputing every link.

    Before any of that, TCP's call is checked against a certificate
    (:func:`_certified_caps`): when its caps fit every link with a margin,
    they are the answer, returned as a ``RowRates`` without a round.
    """
    certified = _certified_caps(flows, demand_caps, cache)
    if certified is not None:
        return certified
    rates: Dict[int, float] = {f.flow_id: 0.0 for f in flows}
    active = [f for f in flows if f.path]
    if not active:
        return rates

    # Links in incidence order: capacity, and the ids of the flows crossing
    # each (its bucket), from the cache's maintained dicts.
    view = _cache_for(flows, cache)
    links_by_id, flows_by_link = view.incidence_view()
    buckets = [list(bucket) for bucket in flows_by_link.values()]
    capacity: List[float] = []
    for link in links_by_id.values():
        c = link.capacity_bps
        capacity.append(c if c > 0.0 else 0.0)

    # Per flow: demand cap, aggregate app limit, priority weight and
    # multiplicity.  Caps that are a row-aligned vector of the cache's table,
    # handed over with the flow list the cache is kept in step with, are read
    # with the table's columns at the flows' rows, one list per column.
    inf = float("inf")
    table = view.built_table
    if (
        isinstance(demand_caps, RowRates)
        and demand_caps.table is table
        and flows is view.trusted_flows
    ):
        rows = [flow._index for flow in active]
        cap_in = demand_caps.rates[rows].tolist()
        app_in = table.app_limit[rows].tolist()
        weight_in = table.priority_weight[rows].tolist()
        mult_in = table.multiplicity[rows].tolist()
    else:
        get_cap = demand_caps.get if demand_caps else {}.get
        cap_in = [get_cap(flow.flow_id, inf) for flow in active]
        app_in = [flow.aggregate_app_limit_bps for flow in active]
        weight_in = [flow.priority_weight for flow in active]
        mult_in = [flow.multiplicity for flow in active]

    # A zero-cap flow freezes at 0 up front, and its weight is never checked
    # — the reference reads weights only of unfrozen flows, so a
    # non-positive weight raises only on a flow with a positive cap.
    cap: Dict[int, float] = {}
    weight: Dict[int, float] = {}
    frozen: Dict[int, float] = {}
    unfrozen = set()
    for flow, c, app_limit, w, multiplicity in zip(active, cap_in, app_in, weight_in, mult_in):
        flow_id = flow.flow_id
        if app_limit < c:
            c = app_limit
        c = float(c)
        if not c > 0.0:
            frozen[flow_id] = 0.0
            continue
        cap[flow_id] = c
        # The weight is per-session: an aggregate of N sessions weighs N
        # times its priority weight.
        w = float(w)
        if w <= 0:
            raise ValueError(f"flow {flow_id} has non-positive weight {w}")
        if multiplicity != 1:
            w *= multiplicity
        weight[flow_id] = w
        unfrozen.add(flow_id)

    # The links of each flow, for marking them stale when it freezes.
    links_of: Dict[int, List[int]] = {flow_id: [] for flow_id in unfrozen}
    for slot, bucket in enumerate(buckets):
        for flow_id in bucket:
            if flow_id in unfrozen:
                links_of[flow_id].append(slot)

    num_links = len(buckets)
    share: List[Optional[float]] = [None] * num_links
    live: List[List[int]] = [[]] * num_links
    stale = set(range(num_links))

    def refresh(slot: int) -> None:
        """Fair share per unit weight on a link, and its unfrozen flows.

        The share is None when no unfrozen flow crosses the link.  The
        remaining capacity subtracts what the already-frozen flows consume.
        """
        bucket = buckets[slot]
        on_link = [flow_id for flow_id in bucket if flow_id in unfrozen]
        live[slot] = on_link
        if not on_link:
            share[slot] = None
            return
        remaining = capacity[slot]
        if len(on_link) != len(bucket):
            remaining -= sum([frozen[flow_id] for flow_id in bucket if flow_id in frozen])
        share[slot] = (remaining if remaining > 0.0 else 0.0) / sum(
            [weight[flow_id] for flow_id in on_link]
        )

    def freeze(flow_id: int, rate: float) -> None:
        frozen[flow_id] = rate
        unfrozen.remove(flow_id)
        stale.update(links_of[flow_id])

    max_rounds = len(active) + num_links + 1
    for _round in range(max_rounds):
        if not unfrozen:
            break
        for slot in stale:
            refresh(slot)
        stale.clear()
        bottleneck_share = inf
        for s in share:
            if s is not None and s < bottleneck_share:
                bottleneck_share = s
        if bottleneck_share == inf:
            # No capacity constraint applies; every remaining flow takes its cap.
            for flow_id in unfrozen:
                frozen[flow_id] = cap[flow_id]
            break

        # Any flow whose cap is below its would-be share freezes at the cap.
        capped = [
            flow_id
            for flow_id in unfrozen
            if cap[flow_id] < bottleneck_share * weight[flow_id] - 1e-12
        ]
        if capped:
            for flow_id in capped:
                freeze(flow_id, cap[flow_id])
            continue

        # Otherwise freeze the flows on (all) bottleneck links at their share.
        froze_any = False
        for slot in range(num_links):
            if slot in stale:
                refresh(slot)
                stale.discard(slot)
            s = share[slot]
            if s is not None and s <= bottleneck_share + 1e-9:
                for flow_id in live[slot]:
                    freeze(flow_id, s * weight[flow_id])
                froze_any = True
        if not froze_any:  # pragma: no cover - defensive
            for flow_id in unfrozen:
                frozen[flow_id] = min(cap[flow_id], bottleneck_share * weight[flow_id])
            break

    rates.update(frozen)
    return rates


def _certified_caps(
    flows: Sequence[Flow],
    demand_caps: Optional[Mapping[int, float]],
    cache: Optional[IncidenceCache],
) -> Optional[RowRates]:
    """TCP's effective demand caps, when they provably are the max-min rates.

    Only TCP's call qualifies: ``demand_caps`` a :class:`RowRates` of the
    cache's built table and ``flows`` the cache's trusted list.
    Each flow's effective cap ``c`` is its demand cap lowered to its
    aggregate app limit, and 0 when that is NaN or not positive or the flow
    has no path (``DeltaWaterFiller._solved_caps``); its weight ``w``
    is priority weight × multiplicity.  The caps come back as a
    ``RowRates`` when

    * every flow with ``c > 0`` has ``w > 0``, and those weights total less
      than 2**1023, so no weight sum overflows; and
    * on every link, of capacity ``C``, the caps sum (by ``bincount``) to
      at most ``C·(1 − δ) − n·τ``, where ``n`` is the number of flows,
      δ = :data:`CERTIFY_MARGIN` and τ = :data:`CERTIFY_SLACK_BPS`.

    Otherwise this returns None and the filler runs its rounds, which also
    raise the ``ValueError`` of a positive-cap flow's non-positive weight.

    Why the filler would return exactly these caps, by induction on its
    rounds.  Suppose every round so far froze flows at their caps (the
    capped test), so every frozen flow sits at its ``c``.  If every link's
    share is inf, every remaining flow takes its cap.  Otherwise let ``l*``
    be the link whose share ``B`` is the bottleneck, with capacity ``C``
    (positive: the check fails a link of capacity 0), ``m ≤ n`` flows and
    unfrozen flows ``U``.  Exactly, its remaining capacity ``R`` exceeds
    the unfrozen caps by at least ``δC + mτ``, and ``B·Σ_U w − Σ_U c =
    R − Σ_U c``.  A sum of ``k`` non-negative terms errs by at most
    ``2k·u`` of its value (u = 2**-53), for 3.11's sequential ``sum``,
    3.12's compensated ``sum`` and ``bincount`` alike; with the check's
    threshold and the filler's subtraction and division, the computed
    ``B·Σ_U w − Σ_U c`` stays within ``(7m + 8)·u·C`` of exact.  So some
    flow of ``U`` has ``B·w − c ≥ τ + (δ − (7m + 8)·u)·C/m`` (pigeonhole),
    and it passes the capped test ``c < B·w − 1e-12``, whose product and
    subtraction round by at most ``4u·C`` more, because ``τ > 1e-12`` and
    ``δ ≥ (11m + 8)·u``.  A share that underflows errs by at most 2**-1075
    per unit weight, under 2**-52 bits/s over weights below 2**1023, which
    τ absorbs.  So the round freezes a flow at its cap, and the rounds go
    on until every flow is frozen at its cap.  δ = 1e-9 covers links of up
    to ~800,000 flows; this filler runs below :data:`AUTO_NUMPY_MIN_FLOWS`.

    The rates are the filler's bit for bit: each positive one is the same
    choice between the same two floats, and a zero, NaN or pathless flow
    gets 0.0 in both.  The view lists flows in row order, not in the order
    of ``flows``, and covers the same flows.
    """
    if (
        cache is None
        or flows is not cache.trusted_flows
        or not isinstance(demand_caps, RowRates)
        or demand_caps.table is not cache.built_table
    ):
        return None
    table = demand_caps.table
    n_rows = table.num_rows
    live = np.flatnonzero(table.live[:n_rows])
    cap = np.zeros(n_rows)
    cap[live] = DeltaWaterFiller._solved_caps(table, demand_caps.rates[live], live)
    positive = cap > 0.0
    weight = table.priority_weight[:n_rows][positive] * table.multiplicity[:n_rows][positive]
    if not ((weight > 0.0).all() and weight.sum() < 2.0**1023):
        return None
    pairs = table.pair_count
    load = np.bincount(
        table.pair_link[:pairs],
        weights=cap[table.pair_flow[:pairs]],
        minlength=table.num_slots,
    )
    room = table.link_capacities() * (1.0 - CERTIFY_MARGIN) - len(flows) * CERTIFY_SLACK_BPS
    if not (load <= room).all():
        return None
    return RowRates(table, cap)


def _cache_for(flows: Sequence[Flow], cache: Optional[IncidenceCache]) -> IncidenceCache:
    """``cache`` when it covers exactly ``flows``, else a throwaway cache of
    them: both walk the flows and their paths in order, so links, and the
    flows on each, come in the same order."""
    if cache is not None and (flows is cache.trusted_flows or cache.matches(flows)):
        return cache
    return IncidenceCache(f for f in flows if f.path)


def link_utilisation(
    flows: Sequence[Flow],
    rates: Mapping[int, float],
    cache: Optional[IncidenceCache] = None,
) -> Dict[str, float]:
    """Total allocated rate per link id under a given rate assignment."""
    link_flows = _cache_for(flows, cache).link_flows_map()
    get = rates.get
    return {
        link_id: sum(get(f.flow_id, 0.0) for f in bucket)
        for link_id, bucket in link_flows.items()
    }


def is_feasible(
    flows: Sequence[Flow],
    rates: Mapping[int, float],
    tolerance: float = 1e-6,
    cache: Optional[IncidenceCache] = None,
) -> bool:
    """True if the assignment does not exceed any link capacity (within tol)."""
    view = _cache_for(flows, cache)
    get = rates.get
    for link_id, bucket in view.link_flows_map().items():
        load = sum(get(f.flow_id, 0.0) for f in bucket)
        if load > view.link_of(link_id).capacity_bps * (1.0 + tolerance):
            return False
    return True


def is_max_min_fair(
    flows: Sequence[Flow],
    rates: Mapping[int, float],
    demand_caps: Optional[Mapping[int, float]] = None,
    tolerance: float = 1e-6,
    cache: Optional[IncidenceCache] = None,
) -> bool:
    """Check the max-min property: no flow can gain without hurting a smaller one.

    A feasible allocation is max-min fair iff every flow either meets its
    demand cap or crosses at least one *saturated* link on which it has the
    largest rate (up to tolerance).
    """
    view = _cache_for(flows, cache)
    link_flows = view.link_flows_map()
    get = rates.get
    load = {
        link_id: sum(get(f.flow_id, 0.0) for f in bucket)
        for link_id, bucket in link_flows.items()
    }
    for link_id, total in load.items():
        if total > view.link_of(link_id).capacity_bps * (1.0 + tolerance):
            return False
    demand_caps = dict(demand_caps or {})
    for flow in flows:
        rate = get(flow.flow_id, 0.0)
        cap = min(demand_caps.get(flow.flow_id, float("inf")), flow.aggregate_app_limit_bps)
        if rate >= cap - tolerance * max(1.0, cap):
            continue
        bottlenecked = False
        for link in flow.path:
            link_load = load.get(link.link_id, 0.0)
            if link_load >= link.capacity_bps * (1.0 - tolerance):
                max_rate_on_link = max(
                    get(f.flow_id, 0.0) for f in link_flows[link.link_id]
                )
                if rate >= max_rate_on_link - tolerance * max(1.0, max_rate_on_link):
                    bottlenecked = True
                    break
        if not bottlenecked:
            return False
    return True
