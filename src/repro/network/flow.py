"""Flow objects.

A flow is a single content transfer (a write or read of a content block)
between two endpoints.  The fabric advances flows in fluid fashion: between
rate changes each flow delivers ``current_rate_bps * dt / 8`` bytes.
"""

from __future__ import annotations

import copyreg
import enum
import itertools
from typing import Dict, List, Optional

from repro.network.topology import Link, Node, column_attribute


class FlowState(enum.Enum):
    """Lifecycle of a flow."""

    PENDING = "pending"      #: created but not started (e.g. waiting on setup RTT)
    ACTIVE = "active"        #: transferring bytes
    FINISHED = "finished"    #: all bytes delivered
    ABORTED = "aborted"      #: cancelled before completion


class FlowKind(enum.Enum):
    """What the flow carries — used by metrics and by server selection."""

    CONTROL = "control"          #: small control/HTTP exchange (< 5 KB in the traces)
    VIDEO = "video"              #: YouTube-style video content
    DATA = "data"                #: generic datacenter content
    REPLICATION = "replication"  #: internal BS-to-BS replication traffic


class Flow:
    """A fluid flow with explicit path, demand rate and delivered rate.

    Attributes
    ----------
    demand_rate_bps:
        The rate at which the *source* tries to send (TCP window / allocated
        rate).  May exceed what the network can carry.
    current_rate_bps:
        The delivered (goodput) rate after link sharing.
    app_limit_bps:
        Rate limit imposed by the application/other resources (the
        ``R_other`` of the paper: CPU, disk).  ``inf`` when unconstrained.
    priority_weight:
        The SCDA priority weight ``℘_j`` (1.0 = best effort).
    min_rate_bps:
        Explicit SLA reservation ``M_j`` (0.0 = none).
    multiplicity:
        Number of identical user sessions this object aggregates (1 = a
        plain discrete flow).  ``current_rate_bps``/``demand_rate_bps`` are
        *aggregate* (total across the sessions, so link accounting is
        unchanged); ``size_bytes``/``remaining_bytes`` are *per-session*.
        The water-filler weighs the flow by ``multiplicity ×
        priority_weight``; ``app_limit_bps``/``min_rate_bps`` are
        per-session and scale by ``multiplicity`` at the aggregate level.
    tenant:
        Opaque tenant label for per-tenant metrics ("" = untagged).

    A flow holds its own values until a fabric's incidence table takes it
    in.  While a table holds it, ``remaining_bytes``, ``current_rate_bps``,
    ``demand_rate_bps`` and ``priority_weight`` live in the table's
    row-aligned columns (with copies of the immutable ``multiplicity`` and
    aggregate app limit, and of the ``transport_state`` keys the transport
    keeps in columns) and the flow is a handle onto its row; the table hands
    the values back when it lets the flow go.  Reading and writing the
    attributes and ``transport_state`` works the same either way.
    """

    _ids = itertools.count()

    # ``_cols``/``_index`` come first: copy and pickle restore slots in this
    # order, and a bound flow's state attributes write through them.
    __slots__ = (
        "_cols",
        "_index",
        "flow_id",
        "src",
        "dst",
        "size_bytes",
        "remaining_bytes",
        "path",
        "state",
        "kind",
        "created_at",
        "started_at",
        "finished_at",
        "demand_rate_bps",
        "current_rate_bps",
        "app_limit_bps",
        "priority_weight",
        "min_rate_bps",
        "multiplicity",
        "tenant",
        "base_rtt_s",
        "transport_state",
        "meta",
    )

    def __init__(
        self,
        src: Node,
        dst: Node,
        size_bytes: float,
        path: List[Link],
        kind: FlowKind = FlowKind.DATA,
        created_at: float = 0.0,
        priority_weight: float = 1.0,
        min_rate_bps: float = 0.0,
        app_limit_bps: float = float("inf"),
        multiplicity: int = 1,
        tenant: str = "",
        flow_id: Optional[int] = None,
    ) -> None:
        # ``not x > 0`` and ``not x >= 0`` refuse NaN too.
        if not size_bytes > 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        if not priority_weight > 0:
            raise ValueError(f"priority weight must be positive, got {priority_weight}")
        if not min_rate_bps >= 0:
            raise ValueError(f"minimum rate must be non-negative, got {min_rate_bps}")
        if not app_limit_bps >= 0:
            raise ValueError(f"application limit must be non-negative, got {app_limit_bps}")
        if int(multiplicity) != multiplicity or multiplicity < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {multiplicity}")
        self.flow_id = next(self._ids) if flow_id is None else int(flow_id)
        self.src = src
        self.dst = dst
        self.size_bytes = float(size_bytes)
        self.remaining_bytes = float(size_bytes)
        self.path = list(path)
        self.state = FlowState.PENDING
        self.kind = kind
        self.created_at = float(created_at)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.demand_rate_bps = 0.0
        self.current_rate_bps = 0.0
        self.app_limit_bps = float(app_limit_bps)
        self.priority_weight = float(priority_weight)
        self.min_rate_bps = float(min_rate_bps)
        self.multiplicity = int(multiplicity)
        self.tenant = str(tenant)
        self.base_rtt_s = 2.0 * sum(l.delay_s for l in self.path) if self.path else 1e-4
        # Per-transport scratch space (cwnd, ssthresh, allocated rates, ...).
        self.transport_state: Dict[str, float] = {}
        self.meta: Dict[str, object] = {}
        #: the incidence table holding this flow's state once bound, and its row
        self._cols = None
        self._index = 0

    # -- aggregate views --------------------------------------------------------
    @property
    def effective_weight(self) -> float:
        """Water-filler weight: ``multiplicity × priority_weight``."""
        if self.multiplicity == 1:
            return self.priority_weight
        return self.priority_weight * self.multiplicity

    @property
    def aggregate_app_limit_bps(self) -> float:
        """Application rate cap summed across all aggregated sessions."""
        if self.multiplicity == 1:
            return self.app_limit_bps
        return self.app_limit_bps * self.multiplicity

    @property
    def aggregate_min_rate_bps(self) -> float:
        """SLA reservation summed across all aggregated sessions."""
        if self.multiplicity == 1:
            return self.min_rate_bps
        return self.min_rate_bps * self.multiplicity

    @property
    def session_rate_bps(self) -> float:
        """Per-session delivered rate (``current_rate_bps / multiplicity``)."""
        if self.multiplicity == 1:
            return self.current_rate_bps
        return self.current_rate_bps / self.multiplicity

    # -- progress ---------------------------------------------------------------
    @property
    def transferred_bytes(self) -> float:
        """Bytes delivered so far (per session)."""
        return self.size_bytes - self.remaining_bytes

    @property
    def completion_fraction(self) -> float:
        """Fraction of the flow already delivered, in [0, 1]."""
        return self.transferred_bytes / self.size_bytes

    def start(self, now: float) -> None:
        """Mark the flow active."""
        if self.state is not FlowState.PENDING:
            raise RuntimeError(f"flow {self.flow_id} already started (state={self.state})")
        self.state = FlowState.ACTIVE
        self.started_at = now

    def advance(self, dt: float) -> float:
        """Deliver bytes for ``dt`` seconds at the current rate.

        Returns the number of bytes delivered *across all sessions*.  Each
        session progresses at ``current_rate_bps / multiplicity``; the
        delivered amount per session is clamped to ``remaining_bytes``.
        """
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if self.state is not FlowState.ACTIVE or dt == 0.0:
            return 0.0
        if self.multiplicity == 1:
            delivered = min(self.remaining_bytes, self.current_rate_bps * dt / 8.0)
            self.remaining_bytes -= delivered
            return delivered
        per_session = min(
            self.remaining_bytes, (self.current_rate_bps / self.multiplicity) * dt / 8.0
        )
        self.remaining_bytes -= per_session
        return per_session * self.multiplicity

    def time_to_complete(self) -> float:
        """Seconds until completion at the current per-session rate."""
        if self.state is not FlowState.ACTIVE:
            return float("inf")
        if self.remaining_bytes <= 0:
            return 0.0
        if self.current_rate_bps <= 0:
            return float("inf")
        if self.multiplicity == 1:
            return self.remaining_bytes * 8.0 / self.current_rate_bps
        return self.remaining_bytes * 8.0 / (self.current_rate_bps / self.multiplicity)

    def finish(self, now: float) -> None:
        """Mark the flow finished at time ``now``."""
        self.state = FlowState.FINISHED
        self.finished_at = now
        self.remaining_bytes = 0.0
        self.current_rate_bps = 0.0
        self.demand_rate_bps = 0.0

    def abort(self, now: float) -> None:
        """Cancel the flow."""
        if self.state is FlowState.FINISHED:
            raise RuntimeError(f"flow {self.flow_id} already finished")
        self.state = FlowState.ABORTED
        self.finished_at = now
        self.current_rate_bps = 0.0
        self.demand_rate_bps = 0.0

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (finish − creation), None until finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at

    def rtt_estimate(self) -> float:
        """Base RTT plus the current queueing delays along the forward path."""
        queueing = sum(l.queueing_delay() for l in self.path)
        return self.base_rtt_s + queueing

    def uses_link(self, link: Link) -> bool:
        """True if ``link`` is on the flow's path."""
        return any(l is link for l in self.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Flow {self.flow_id} {self.src.node_id}->{self.dst.node_id} "
            f"{self.size_bytes / 1e3:.1f}KB {self.state.value}>"
        )


class BoundFlow(Flow):
    """A :class:`Flow` whose state lives in an incidence table's row columns
    (see :class:`~repro.network.incidence.IncidenceTable`).  Weight writes are
    logged in the table's ``weight_log`` for the water-filler."""

    __slots__ = ()

    remaining_bytes = column_attribute("remaining", "Bytes left per session.")
    current_rate_bps = column_attribute("current_rate", "Delivered rate in bits/s.")
    demand_rate_bps = column_attribute("demand_rate", "Offered rate in bits/s.")
    priority_weight = column_attribute(
        "priority_weight", "SCDA priority weight.", log="weight_log"
    )

    #: the plain slots the column attributes above shadow
    OWN_SLOTS = tuple(
        Flow.__dict__[attr]
        for attr in ("remaining_bytes", "current_rate_bps", "demand_rate_bps", "priority_weight")
    )

    def __reduce_ex__(self, protocol):
        """Copy and pickle as an unbound :class:`Flow` holding the current values.

        A copy belongs to no table, and the table refers back to the flow, a
        cycle pickle cannot rebuild through the column attributes.
        """
        state = {name: getattr(self, name) for name in copyreg._slotnames(Flow)}
        state["transport_state"] = dict(self.transport_state)
        state["_cols"] = None
        state["_index"] = 0
        return _unbound_flow, (state,)


def _unbound_flow(state: Dict[str, object]) -> Flow:
    """A plain :class:`Flow` with the slot values in ``state``."""
    flow = Flow.__new__(Flow)
    for name, value in state.items():
        setattr(flow, name, value)
    return flow
