"""Topology primitives: nodes, directed links, and the topology graph.

Conventions
-----------
* A physical cable is represented by **two directed links**, one per
  direction.  SCDA's rate metric distinguishes uplink and downlink rates of
  every cable (the ``d``/``u`` subscripts of the paper), so directed links are
  the natural unit.
* "Uplink" means towards the core of the datacenter tree (increasing level),
  "downlink" means towards the servers (decreasing level).  For non-tree
  topologies the distinction is stored per link as a plain direction flag.
* Capacities are bits/second; delays are seconds; queue sizes are bytes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class NodeKind(enum.Enum):
    """Role of a node in the datacenter."""

    HOST = "host"          #: a server (block server, name node, front end)
    SWITCH = "switch"      #: an internal switch/router
    CLIENT = "client"      #: an external user client (UCL)


@dataclass
class Node:
    """A vertex of the datacenter graph.

    Attributes
    ----------
    node_id:
        Unique string identifier, e.g. ``"bs-3"`` or ``"agg-1"``.
    kind:
        Host, switch or external client.
    level:
        Tree level: hosts are level 0, ToR switches level 1, aggregation
        level 2, core level 3 (``hmax``).  Clients use level -1.
    attrs:
        Free-form attributes (rack id, pod id, power profile name, ...).
    """

    node_id: str
    kind: NodeKind
    level: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.node_id!r}, {self.kind.value}, level={self.level})"


class Link:
    """A directed link with capacity, propagation delay and a fluid queue.

    The queue holds the backlog (bytes) that has been sent into the link above
    its drain capacity; it produces queueing delay ``queue_bytes*8/capacity``
    and, when it exceeds ``buffer_bytes``, a loss indication that transports
    may react to.

    A link holds its own state until it is bound: when an incidence table
    first routes a flow over it, or a fabric's first columnar advance takes
    over the backlog it had tracked without a table.  From then on its
    topology's :class:`LinkColumns` own the runtime state (capacity, queue,
    buffer, carried bytes, loss counters) and the link is a
    :class:`BoundLink`, a handle onto its column entry; reading and writing
    the attributes works the same either way.
    """

    _ids = itertools.count()

    # ``_cols``/``_index`` come first: copy and pickle restore slots in this
    # order, and a bound link's state attributes write through them.
    __slots__ = (
        "_cols",
        "_index",
        "link_id",
        "src",
        "dst",
        "capacity_bps",
        "nominal_capacity_bps",
        "delay_s",
        "buffer_bytes",
        "is_uplink",
        "up",
        "queue_bytes",
        "loss_events",
        "_loss_in_interval",
        "bytes_carried",
        "attrs",
    )

    def __init__(
        self,
        src: Node,
        dst: Node,
        capacity_bps: float,
        delay_s: float,
        buffer_bytes: Optional[float] = None,
        is_uplink: bool = False,
        link_id: Optional[str] = None,
    ) -> None:
        # ``not x > 0`` rather than ``x <= 0``, so NaN is refused too.
        if not capacity_bps > 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        if not delay_s >= 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        if buffer_bytes is not None and not buffer_bytes >= 0:
            raise ValueError(f"buffer must be non-negative, got {buffer_bytes}")
        self.link_id = link_id or f"link-{next(self._ids)}:{src.node_id}->{dst.node_id}"
        self.src = src
        self.dst = dst
        self.capacity_bps = float(capacity_bps)
        #: the as-built capacity; dynamics events degrade/restore relative to it
        self.nominal_capacity_bps = float(capacity_bps)
        self.delay_s = float(delay_s)
        # Default buffer: one bandwidth-delay product at 100 ms, a common
        # shallow-buffer datacenter setting.
        self.buffer_bytes = (
            float(buffer_bytes)
            if buffer_bytes is not None
            else self.capacity_bps * 0.1 / 8.0
        )
        self.is_uplink = bool(is_uplink)
        #: False while the link is failed; routers skip down links and the
        #: fabric reroutes or aborts flows stranded on them (see
        #: :meth:`repro.network.fabric.FabricSimulator.fail_link`).
        self.up = True
        self.queue_bytes = 0.0
        self.loss_events = 0
        self._loss_in_interval = False
        self.bytes_carried = 0.0
        self.attrs: Dict[str, object] = {}
        #: the columns this link binds into (its topology's; None for a
        #: free-standing link) and, once it is a BoundLink, its entry there
        self._cols: Optional["LinkColumns"] = None
        self._index = 0

    # -- queue dynamics -----------------------------------------------------------
    def queueing_delay(self) -> float:
        """Current queueing delay (seconds) caused by the backlog."""
        return self.queue_bytes * 8.0 / self.capacity_bps

    def integrate_queue(self, offered_bps: float, dt: float) -> None:
        """Advance the fluid queue by ``dt`` seconds given ``offered_bps`` input.

        Backlog grows when the offered load exceeds capacity and drains
        otherwise.  A loss indication is latched when the backlog would exceed
        the buffer; the excess is dropped (the queue is clamped to the buffer).
        """
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if dt == 0:
            return
        delta_bytes = (offered_bps - self.capacity_bps) * dt / 8.0
        new_queue = self.queue_bytes + delta_bytes
        if new_queue > self.buffer_bytes:
            self._loss_in_interval = True
            self.loss_events += 1
            new_queue = self.buffer_bytes
        self.queue_bytes = max(0.0, new_queue)
        # Account for traffic actually carried (cannot exceed capacity).
        self.bytes_carried += min(offered_bps, self.capacity_bps) * dt / 8.0

    def consume_loss_flag(self) -> bool:
        """Return and clear the 'loss happened since last check' flag."""
        flag = self._loss_in_interval
        self._loss_in_interval = False
        return flag

    def reset_state(self) -> None:
        """Clear queue/loss/carried-byte state (used between experiments)."""
        self.queue_bytes = 0.0
        self.loss_events = 0
        self._loss_in_interval = False
        self.bytes_carried = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gbps = self.capacity_bps / 1e9
        return f"Link({self.src.node_id}->{self.dst.node_id}, {gbps:g} Gbps)"


def grown(array: np.ndarray, need: int, fill) -> np.ndarray:
    """``array`` with room for at least ``need`` entries, the new ones ``fill``.

    Grows by a quarter at a time: amortised O(1) appends without the
    doubling's up-to-2x spare memory on a large table.
    """
    cap = max(array.shape[0], 4)
    while cap < need:
        cap += cap // 4
    out = np.full(cap, fill, dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


def bind_handle(handle, bound_class: type, cols, index: int) -> None:
    """Make ``handle`` a ``bound_class`` handle onto entry ``index`` of ``cols``.

    The caller has copied the handle's state into the columns; the handle's
    own copies (the slots in ``bound_class.OWN_SLOTS``) are dropped, so the
    columns hold the only one.
    """
    if handle.__class__ is not bound_class:
        for slot in bound_class.OWN_SLOTS:
            slot.__delete__(handle)
    handle._cols = cols
    handle._index = index
    handle.__class__ = bound_class


class ChangeLog:
    """The entries of a column that handles wrote, for readers that keep
    copies of the column.

    A reader remembers :attr:`version` when it copies the column, and later
    asks :meth:`since` which entries were written after that, instead of
    comparing the whole column.  The log keeps the last :data:`KEEP` to
    ``2 * KEEP`` entries; a reader it no longer reaches back to, or any
    reader after :meth:`reset`, gets None and compares in full.
    """

    KEEP = 4096

    __slots__ = ("version", "_entries", "_floor")

    def __init__(self) -> None:
        #: writes logged so far
        self.version = 0
        self._entries: List[int] = []
        #: the oldest version :meth:`since` can answer for
        self._floor = 0

    def mark(self, index: int) -> None:
        """Log a write of entry ``index``."""
        entries = self._entries
        entries.append(index)
        self.version += 1
        if len(entries) > 2 * self.KEEP:
            del entries[: self.KEEP]
            self._floor += self.KEEP

    def reset(self) -> None:
        """Forget the entries (they were renumbered): every reader compares in full."""
        self._entries.clear()
        self.version += 1
        self._floor = self.version

    def since(self, version: int) -> Optional[List[int]]:
        """The entries written after ``version`` (repeats included), or None
        when the log does not reach back that far."""
        if version < self._floor:
            return None
        return self._entries[len(self._entries) - (self.version - version):]


def column_attribute(name: str, doc: str, log: Optional[str] = None) -> property:
    """A handle attribute stored at entry ``self._index`` of column ``name`` of
    ``self._cols`` (see :class:`LinkColumns` and
    :class:`~repro.network.incidence.IncidenceTable`); a write is also logged
    in the :class:`ChangeLog` ``log`` of ``self._cols`` when one is named."""

    def fget(self):
        return getattr(self._cols, name).item(self._index)

    if log is None:

        def fset(self, value) -> None:
            getattr(self._cols, name)[self._index] = value

    else:

        def fset(self, value) -> None:
            cols = self._cols
            getattr(cols, name)[self._index] = value
            getattr(cols, log).mark(self._index)

    return property(fget, fset, doc=doc)


class BoundLink(Link):
    """A :class:`Link` whose runtime state lives in its topology's columns."""

    __slots__ = ()

    capacity_bps = column_attribute("capacity", "Capacity in bits/s.", log="capacity_log")
    buffer_bytes = column_attribute("buffer", "Buffer size in bytes.")
    queue_bytes = column_attribute("queue", "Current backlog in bytes.", log="queue_log")
    bytes_carried = column_attribute("carried", "Bytes carried so far.")
    loss_events = column_attribute("loss_events", "Buffer overflows so far.")
    _loss_in_interval = column_attribute("loss_flag", "Loss latched since last consumed.")

    #: the plain slots the column attributes above shadow
    OWN_SLOTS = tuple(
        Link.__dict__[attr]
        for attr in (
            "capacity_bps", "buffer_bytes", "queue_bytes",
            "bytes_carried", "loss_events", "_loss_in_interval",
        )
    )


class LinkColumns:
    """The runtime state of a topology's links as numpy columns.

    Entry 0 is a sentinel with infinite capacity and buffer and no backlog;
    incidence tables map their scratch and retired slots to it.  A link gets
    the next entry when it is bound (:meth:`bind`, see :class:`Link`): its
    state moves into the columns, which are from then on the only copy of
    it, and the link becomes a :class:`BoundLink` handle onto its entry.
    Entries past the bound links hold sentinel values.

    Writes through the handles are logged: :attr:`capacity_log` for
    capacities (runtime degradations and SLA boosts) and :attr:`queue_log`
    for backlogs (a reset, or a link bound with a backlog), so the solver and
    the fabric re-read only the entries that changed.
    """

    #: column name -> (dtype, sentinel value); :class:`BoundLink` maps the
    #: link attributes onto them
    FIELDS = {
        "capacity": (np.float64, float("inf")),
        "buffer": (np.float64, float("inf")),
        "queue": (np.float64, 0.0),
        "carried": (np.float64, 0.0),
        "loss_events": (np.int64, 0),
        "loss_flag": (np.bool_, False),
    }

    def __init__(self) -> None:
        for name, (dtype, sentinel) in self.FIELDS.items():
            setattr(self, name, np.full(64, sentinel, dtype=dtype))
        #: bound links (entries 1..bound)
        self.bound = 0
        self.capacity_log = ChangeLog()
        self.queue_log = ChangeLog()

    @property
    def size(self) -> int:
        """Length of every column (sentinel, bound links and spare entries)."""
        return self.capacity.shape[0]

    def bind(self, link: Link) -> int:
        """Move ``link``'s state into a new entry and return the entry.

        A no-op returning the entry when the link is already bound here.
        """
        if link.__class__ is BoundLink and link._cols is self:
            return link._index
        index = self.bound = self.bound + 1
        if index >= self.size:
            for name, (_dtype, sentinel) in self.FIELDS.items():
                setattr(self, name, grown(getattr(self, name), index + 1, sentinel))
        self.capacity[index] = link.capacity_bps
        self.buffer[index] = link.buffer_bytes
        self.queue[index] = link.queue_bytes
        self.carried[index] = link.bytes_carried
        self.loss_events[index] = link.loss_events
        self.loss_flag[index] = link._loss_in_interval
        if self.queue[index] > 0.0:
            self.queue_log.mark(index)
        bind_handle(link, BoundLink, self, index)
        return index


class Topology:
    """A directed multigraph of :class:`Node` and :class:`Link`.

    The topology also exposes tree-structure helpers (parents/children by
    level) used by the RM/RA hierarchy, but it does not *require* a tree; the
    general-topology code paths (Section IX) only use the adjacency queries.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}
        self._out: Dict[str, List[Link]] = {}
        self._in: Dict[str, List[Link]] = {}
        #: runtime state of the links incidence tables have used
        self.link_columns = LinkColumns()

    # -- construction ---------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add ``node``; adding the same id twice is an error."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._out[node.node_id] = []
        self._in[node.node_id] = []
        return node

    def add_host(self, node_id: str, level: int = 0, **attrs: object) -> Node:
        """Convenience: add a host node."""
        return self.add_node(Node(node_id, NodeKind.HOST, level, dict(attrs)))

    def add_switch(self, node_id: str, level: int, **attrs: object) -> Node:
        """Convenience: add a switch node."""
        return self.add_node(Node(node_id, NodeKind.SWITCH, level, dict(attrs)))

    def add_client(self, node_id: str, **attrs: object) -> Node:
        """Convenience: add an external client node."""
        return self.add_node(Node(node_id, NodeKind.CLIENT, -1, dict(attrs)))

    def add_link(
        self,
        src: Node,
        dst: Node,
        capacity_bps: float,
        delay_s: float,
        buffer_bytes: Optional[float] = None,
        is_uplink: Optional[bool] = None,
    ) -> Link:
        """Add a single directed link from ``src`` to ``dst``."""
        for node in (src, dst):
            if node.node_id not in self._nodes:
                raise KeyError(f"node {node.node_id!r} not in topology")
        if is_uplink is None:
            is_uplink = dst.level > src.level
        link = Link(src, dst, capacity_bps, delay_s, buffer_bytes, is_uplink)
        link._cols = self.link_columns
        self._links[link.link_id] = link
        self._out[src.node_id].append(link)
        self._in[dst.node_id].append(link)
        return link

    def add_duplex_link(
        self,
        a: Node,
        b: Node,
        capacity_bps: float,
        delay_s: float,
        buffer_bytes: Optional[float] = None,
    ) -> Tuple[Link, Link]:
        """Add both directions of a cable between ``a`` and ``b``."""
        up = self.add_link(a, b, capacity_bps, delay_s, buffer_bytes)
        down = self.add_link(b, a, capacity_bps, delay_s, buffer_bytes)
        return up, down

    # -- queries ----------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        """All directed links, in insertion order."""
        return list(self._links.values())

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        """True if a node with that id exists."""
        return node_id in self._nodes

    def hosts(self) -> List[Node]:
        """All host nodes."""
        return [n for n in self._nodes.values() if n.kind is NodeKind.HOST]

    def switches(self) -> List[Node]:
        """All switch nodes."""
        return [n for n in self._nodes.values() if n.kind is NodeKind.SWITCH]

    def clients(self) -> List[Node]:
        """All external client nodes."""
        return [n for n in self._nodes.values() if n.kind is NodeKind.CLIENT]

    def out_links(self, node: Node) -> List[Link]:
        """Directed links leaving ``node``."""
        return list(self._out[node.node_id])

    def in_links(self, node: Node) -> List[Link]:
        """Directed links entering ``node``."""
        return list(self._in[node.node_id])

    def neighbors(self, node: Node) -> List[Node]:
        """Nodes reachable over one outgoing link."""
        return [link.dst for link in self._out[node.node_id]]

    def find_link(self, src: Node, dst: Node) -> Link:
        """The first directed link from ``src`` to ``dst`` (KeyError if none)."""
        for link in self._out[src.node_id]:
            if link.dst.node_id == dst.node_id:
                return link
        raise KeyError(f"no link {src.node_id} -> {dst.node_id}")

    def uplink_of(self, node: Node) -> Optional[Link]:
        """The (first) link from ``node`` towards a higher level, if any."""
        candidates = [l for l in self._out[node.node_id] if l.dst.level > node.level]
        return candidates[0] if candidates else None

    def downlink_to(self, node: Node) -> Optional[Link]:
        """The (first) link into ``node`` from a higher level, if any."""
        candidates = [l for l in self._in[node.node_id] if l.src.level > node.level]
        return candidates[0] if candidates else None

    def parent(self, node: Node) -> Optional[Node]:
        """The tree parent (unique higher-level neighbour), if any."""
        uplink = self.uplink_of(node)
        return uplink.dst if uplink is not None else None

    def children(self, node: Node) -> List[Node]:
        """Lower-level neighbours of ``node`` (its tree children)."""
        return [l.dst for l in self._out[node.node_id] if l.dst.level < node.level]

    def max_level(self) -> int:
        """The highest level present among switches (``hmax`` in the paper)."""
        levels = [n.level for n in self._nodes.values() if n.kind is NodeKind.SWITCH]
        return max(levels) if levels else 0

    def levels(self) -> Dict[int, List[Node]]:
        """Nodes grouped by level."""
        grouped: Dict[int, List[Node]] = {}
        for node in self._nodes.values():
            grouped.setdefault(node.level, []).append(node)
        return grouped

    def reset_links(self) -> None:
        """Reset queue/loss state on every link."""
        for link in self._links.values():
            link.reset_state()

    # -- iteration / sizing --------------------------------------------------------------
    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Topology {self.name!r}: {len(self._nodes)} nodes, "
            f"{len(self._links)} links>"
        )

    # -- export -----------------------------------------------------------------------------
    def to_dot(self, include_capacities: bool = True) -> str:
        """Render the topology as a Graphviz ``dot`` graph.

        Each duplex pair of directed links is drawn as one undirected edge
        (labelled with the capacity in Gb/s when ``include_capacities``);
        hosts, switches and clients get distinct shapes so the figure-1-style
        structure is visible with any dot renderer.
        """
        shape_of = {
            NodeKind.HOST: "box",
            NodeKind.SWITCH: "ellipse",
            NodeKind.CLIENT: "diamond",
        }
        lines = [f'graph "{self.name}" {{', "  rankdir=BT;"]
        for node in self._nodes.values():
            lines.append(
                f'  "{node.node_id}" [shape={shape_of[node.kind]}, label="{node.node_id}"];'
            )
        seen_pairs = set()
        for link in self._links.values():
            key = tuple(sorted((link.src.node_id, link.dst.node_id)))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            label = f' [label="{link.capacity_bps / 1e9:g}G"]' if include_capacities else ""
            lines.append(f'  "{key[0]}" -- "{key[1]}"{label};')
        lines.append("}")
        return "\n".join(lines)

    # -- validation -------------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on problems.

        * every link endpoint is a registered node,
        * every host/client has at least one outgoing and one incoming link,
        * capacities and delays are positive/non-negative.
        """
        problems: List[str] = []
        for link in self._links.values():
            for endpoint in (link.src, link.dst):
                if endpoint.node_id not in self._nodes:
                    problems.append(f"link {link.link_id} endpoint {endpoint.node_id} missing")
        for node in self._nodes.values():
            if node.kind in (NodeKind.HOST, NodeKind.CLIENT):
                if not self._out[node.node_id]:
                    problems.append(f"{node.node_id} has no outgoing link")
                if not self._in[node.node_id]:
                    problems.append(f"{node.node_id} has no incoming link")
        if problems:
            raise ValueError("invalid topology: " + "; ".join(problems))
