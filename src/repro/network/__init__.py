"""Datacenter network substrate.

This package provides the flow-level network model that replaces NS-2 in the
original paper:

* :mod:`~repro.network.topology` — nodes, directed links and the topology
  graph.
* :mod:`~repro.network.tree` — the 3-tier tree topology of the paper's
  Figures 1 and 6 (plus external client attachment).
* :mod:`~repro.network.fattree`, :mod:`~repro.network.vl2`,
  :mod:`~repro.network.leafspine` — alternative datacenter fabrics
  (Section IX: "SCDA with general network topologies").
* :mod:`~repro.network.routing` — shortest-path and ECMP routing.
* :mod:`~repro.network.flow` — flow objects with fluid byte progress.
* :mod:`~repro.network.fluid` — max-min (water-filling) bandwidth shares:
  a pure-Python filler for small problems and the incremental numpy filler
  of :mod:`~repro.network.fluid_fast` from 192 flows, behind one call.
* :mod:`~repro.network.incidence` — the shared, incrementally-maintained
  link×flow incidence cache used by the allocator and the control round.
* :mod:`~repro.network.fabric` — the event-driven fabric simulator that
  advances flows, integrates queues and invokes a transport model.
* :mod:`~repro.network.transport` — transport models: flow-level TCP
  (RandTCP baseline) and the SCDA explicit-rate transport.
"""

from repro.network.topology import Node, NodeKind, Link, Topology
from repro.network.tree import TreeTopologyConfig, build_tree_topology
from repro.network.fattree import FatTreeConfig, build_fat_tree, build_fat_tree_topology
from repro.network.vl2 import Vl2Config, build_vl2_clos, build_vl2_topology
from repro.network.leafspine import (
    LeafSpineConfig,
    build_leaf_spine,
    build_leaf_spine_topology,
)
from repro.network.routing import Router, EcmpRouter, HashingEcmpRouter
from repro.network.flow import Flow, FlowState
from repro.network.fluid import max_min_shares
from repro.network.incidence import IncidenceCache
from repro.network.fabric import FabricSimulator, FabricConfig

__all__ = [
    "Node",
    "NodeKind",
    "Link",
    "Topology",
    "TreeTopologyConfig",
    "build_tree_topology",
    "FatTreeConfig",
    "build_fat_tree",
    "build_fat_tree_topology",
    "Vl2Config",
    "build_vl2_topology",
    "build_vl2_clos",
    "LeafSpineConfig",
    "build_leaf_spine",
    "build_leaf_spine_topology",
    "Router",
    "EcmpRouter",
    "HashingEcmpRouter",
    "Flow",
    "FlowState",
    "max_min_shares",
    "IncidenceCache",
    "FabricSimulator",
    "FabricConfig",
]
