"""The SCDA control plane — the paper's primary contribution.

* :mod:`~repro.core.rate_metric` — the rate metric of Section IV
  (equations 1-6) and the per-link calculator that applies it every control
  interval.
* :mod:`~repro.core.monitors` — resource monitors (RM), one per block server.
* :mod:`~repro.core.allocators` — resource allocators (RA), one per switch.
* :mod:`~repro.core.maxmin` — the max/min exchange over the RM/RA tree
  (Section VI-A, Figure 2).
* :mod:`~repro.core.priority` — prioritized rate allocation (Section IV-A):
  priority weights, SJF/EDF weight policies.
* :mod:`~repro.core.reservation` — explicit minimum-rate reservations
  (Section IV-C).
* :mod:`~repro.core.sla` — SLA-violation detection and mitigation
  (Section IV-A).
* :mod:`~repro.core.server_selection` — content-aware server selection
  (Section VII).
* :mod:`~repro.core.controller` — :class:`ScdaController`, which ties the
  tree, the calculators and the policies together and implements the
  :class:`~repro.network.transport.scda.RateProvider` interface consumed by
  the SCDA transport.
"""

from repro.core.rate_metric import (
    ScdaParams,
    link_rate,
    simplified_link_rate,
    effective_flow_count,
    weighted_rate_sum,
    LinkRateCalculator,
)
from repro.core.monitors import ResourceMonitor, OtherResourceModel
from repro.core.allocators import ResourceAllocator
from repro.core.maxmin import ScdaTree, LevelRates
from repro.core.priority import PriorityManager, SjfWeightPolicy, EdfWeightPolicy
from repro.core.reservation import ReservationRegistry, Reservation
from repro.core.sla import SlaPolicy, SlaViolation, SlaMonitor
from repro.core.server_selection import (
    ServerSelector,
    SelectionMetrics,
    InteractivePolicy,
    SemiInteractivePolicy,
    PassivePolicy,
    PowerAwarePolicy,
)
from repro.core.overhead import MessageSizes, OverheadReport, estimate_control_overhead
from repro.core.controller import ScdaController, ScdaControllerConfig

__all__ = [
    "ScdaParams",
    "link_rate",
    "simplified_link_rate",
    "effective_flow_count",
    "weighted_rate_sum",
    "LinkRateCalculator",
    "ResourceMonitor",
    "OtherResourceModel",
    "ResourceAllocator",
    "ScdaTree",
    "LevelRates",
    "PriorityManager",
    "SjfWeightPolicy",
    "EdfWeightPolicy",
    "ReservationRegistry",
    "Reservation",
    "SlaPolicy",
    "SlaViolation",
    "SlaMonitor",
    "ServerSelector",
    "SelectionMetrics",
    "InteractivePolicy",
    "SemiInteractivePolicy",
    "PassivePolicy",
    "PowerAwarePolicy",
    "MessageSizes",
    "OverheadReport",
    "estimate_control_overhead",
    "ScdaController",
    "ScdaControllerConfig",
]
