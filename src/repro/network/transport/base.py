"""Transport model interface."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.network.flow import Flow


class TransportModel:
    """Decides the demand and delivered rate of every active flow.

    Subclasses implement :meth:`update_rates`; the fabric calls it at every
    recompute point (flow arrival, completion, control tick) after having
    advanced the fluid state up to ``now``.  The model must set, for every
    flow in ``flows``:

    * ``flow.demand_rate_bps`` — what the source offers to the network, and
    * ``flow.current_rate_bps`` — what is actually delivered end to end,

    most cheaply with one :meth:`FabricSimulator.set_rates` call, which
    writes the fabric's rate columns directly once it has them.
    """

    name = "base"

    #: Keys of ``flow.transport_state`` that the fabric's incidence table
    #: keeps in row columns while it holds the flow (see
    #: :class:`~repro.network.incidence.IncidenceTable`), so that
    #: :meth:`update_rates` can evolve them with array operations.
    transport_columns: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.fabric = None  # type: Optional[object]

    def attach(self, fabric) -> None:
        """Bind the model to a fabric (called by :class:`FabricSimulator`)."""
        self.fabric = fabric

    def on_flow_start(self, flow: Flow, now: float) -> None:
        """Hook: a flow has just become active."""

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        """Hook: a flow has just finished or been aborted."""

    def on_flow_rerouted(self, flow: Flow, now: float, reason: str = "policy") -> None:
        """Hook: an active flow moved onto a new path.

        ``reason`` is ``"policy"`` for scheduler-driven reroutes (Hedera
        moving an elephant onto a quieter path — transparent to the
        endpoints) and ``"failure"`` when the old path lost a link, which
        endpoint transports may model as a loss/reconnect event.  The default
        is to do nothing.
        """

    def update_rates(self, flows: Sequence[Flow], now: float) -> None:
        """Assign demand and delivered rates to all active flows."""
        raise NotImplementedError
