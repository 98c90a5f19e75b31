"""The plain progressive filling, kept as the oracle of the production filler.

``repro.network.fluid._max_min_shares_python`` runs the same rounds with
memoized link shares and must return exactly the dict this returns: the same
keys in the same order and the same bits in every value.  The tests in this
directory and ``benchmarks/test_bench_kernel_microbench.py`` import it from
here.  :func:`effective_cap` is the per-flow rule for the caps the fillers
solve with, the oracle of the delta filler's row-aligned caps.
"""

from typing import Dict, List, Mapping, Optional, Sequence

from repro.network.flow import Flow
from repro.network.fluid import _cache_for
from repro.network.incidence import IncidenceCache


def effective_cap(flow: Flow, demand_caps: Mapping[int, float]) -> float:
    """The cap a filler solves ``flow`` with: its demand cap (inf without
    one) lowered to its aggregate app limit, 0 for a pathless flow, and 0
    where that is NaN or not positive."""
    cap = demand_caps.get(flow.flow_id, float("inf"))
    app_limit = flow.aggregate_app_limit_bps
    if app_limit < cap:
        cap = app_limit
    if not flow.path:
        return 0.0
    return max(0.0, float(cap))


def max_min_shares_reference(
    flows: Sequence[Flow],
    demand_caps: Optional[Mapping[int, float]] = None,
    cache: Optional[IncidenceCache] = None,
) -> Dict[int, float]:
    """The reference pure-Python progressive filling.

    The test oracle of ``repro.network.fluid._max_min_shares_python``, which
    must return the same dict bit for bit.
    """
    demand_caps = dict(demand_caps or {})

    active: List[Flow] = [f for f in flows if f.path]
    rates: Dict[int, float] = {f.flow_id: 0.0 for f in flows}
    if not active:
        return rates

    weight_seen: Dict[int, float] = {}

    def weight_of(flow: Flow) -> float:
        # The weight is per-session: an aggregate of N sessions weighs N
        # times its priority weight.  Read once per flow and solve: from 64 active flows up to
        # AUTO_NUMPY_MIN_FLOWS this solver runs on flows bound to a fabric
        # table, whose priority_weight is a column read.
        w = weight_seen.get(flow.flow_id)
        if w is not None:
            return w
        w = float(flow.priority_weight)
        if w <= 0:
            raise ValueError(f"flow {flow.flow_id} has non-positive weight {w}")
        if flow.multiplicity != 1:
            w *= flow.multiplicity
        weight_seen[flow.flow_id] = w
        return w

    def cap_of(flow: Flow) -> float:
        cap = demand_caps.get(flow.flow_id, float("inf"))
        app_limit = flow.aggregate_app_limit_bps
        if app_limit < cap:
            cap = app_limit
        return max(0.0, float(cap))

    # Remaining capacity per link and the flows crossing it — reuse the
    # fabric's incidence when it covers exactly this flow set.
    view = _cache_for(flows, cache)
    link_flows = view.link_flows_map()
    links_by_id = view.incidence_view()[0]
    link_capacity: Dict[str, float] = {}
    for link_id, link in links_by_id.items():
        link_capacity[link_id] = max(0.0, link.capacity_bps)

    unfrozen = {f.flow_id: f for f in active}
    frozen_rate: Dict[int, float] = {}

    # First freeze any flow with a zero cap (it simply gets nothing).
    for flow in list(unfrozen.values()):
        if cap_of(flow) <= 0.0:
            frozen_rate[flow.flow_id] = 0.0
            del unfrozen[flow.flow_id]

    def live_share(flows_on_link: Sequence[Flow], capacity: float):
        """Fair share per unit weight on a link, and its unfrozen flows.

        Returns ``(None, ())`` when no unfrozen flow crosses the link.  The
        remaining capacity subtracts what the already-frozen flows consume.
        """
        live = [f for f in flows_on_link if f.flow_id in unfrozen]
        if not live:
            return None, ()
        weight_sum = sum(weight_of(f) for f in live)
        remaining = capacity - sum(
            frozen_rate[f.flow_id] for f in flows_on_link if f.flow_id in frozen_rate
        )
        return max(0.0, remaining) / weight_sum, live

    max_rounds = len(active) + len(link_capacity) + 1
    for _round in range(max_rounds):
        if not unfrozen:
            break
        # Fair share *per unit weight* on each still-relevant link.
        bottleneck_share = float("inf")
        for link_id, flows_on_link in link_flows.items():
            share, _live = live_share(flows_on_link, link_capacity[link_id])
            if share is not None and share < bottleneck_share:
                bottleneck_share = share
        if bottleneck_share == float("inf"):
            # No capacity constraint applies; every remaining flow takes its cap.
            for flow in list(unfrozen.values()):
                frozen_rate[flow.flow_id] = cap_of(flow)
                del unfrozen[flow.flow_id]
            break

        # Any flow whose cap is below its would-be share freezes at the cap.
        capped = [
            f
            for f in unfrozen.values()
            if cap_of(f) < bottleneck_share * weight_of(f) - 1e-12
        ]
        if capped:
            for flow in capped:
                frozen_rate[flow.flow_id] = cap_of(flow)
                del unfrozen[flow.flow_id]
            continue

        # Otherwise freeze the flows on (all) bottleneck links at their share.
        froze_any = False
        for link_id, flows_on_link in link_flows.items():
            share, live = live_share(flows_on_link, link_capacity[link_id])
            if share is None:
                continue
            if share <= bottleneck_share + 1e-9:
                for flow in live:
                    frozen_rate[flow.flow_id] = share * weight_of(flow)
                    del unfrozen[flow.flow_id]
                froze_any = True
        if not froze_any:  # pragma: no cover - defensive
            for flow in list(unfrozen.values()):
                frozen_rate[flow.flow_id] = min(cap_of(flow), bottleneck_share * weight_of(flow))
                del unfrozen[flow.flow_id]

    rates.update(frozen_rate)
    return rates
