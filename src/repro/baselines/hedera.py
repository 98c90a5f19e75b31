"""Hedera-style elephant-flow rerouting (Al-Fares et al., NSDI 2010).

Hedera schedules mice with ECMP and periodically moves *elephant* flows
(those that have transferred more than a threshold — 100 MB in the paper's
discussion) onto less-loaded equal-cost paths using a central scheduler.  The
SCDA paper's related-work section points out that this helps little when most
flows are below the threshold; the ablation benchmark reproduces that
observation on a multi-path fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.fabric import FabricSimulator
from repro.network.flow import Flow, FlowState
from repro.network.routing import EcmpRouter
from repro.sim.timers import PeriodicTimer


@dataclass
class HederaConfig:
    """Scheduler parameters."""

    elephant_threshold_bytes: float = 100 * 1024 * 1024.0
    scheduling_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.elephant_threshold_bytes > 0:  # NaN too
            raise ValueError("elephant threshold must be positive")
        if not self.scheduling_interval_s > 0:
            raise ValueError("scheduling interval must be positive")


class HederaScheduler:
    """Periodically reroutes elephants onto the least-loaded equal-cost path."""

    def __init__(
        self,
        fabric: FabricSimulator,
        router: EcmpRouter,
        config: Optional[HederaConfig] = None,
    ) -> None:
        self.fabric = fabric
        self.router = router
        self.config = config or HederaConfig()
        self.reroutes = 0
        self._timer: Optional[PeriodicTimer] = None

    def start(self) -> None:
        """Begin periodic scheduling."""
        if self._timer is None:
            self._timer = PeriodicTimer(
                self.fabric.sim, self.config.scheduling_interval_s, self._schedule_round
            )

    def stop(self) -> None:
        """Stop scheduling."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def elephants(self) -> List[Flow]:
        """Active flows that have already transferred more than the threshold."""
        return [
            f
            for f in self.fabric.active_flows
            if f.transferred_bytes >= self.config.elephant_threshold_bytes
        ]

    def _path_load(self, path) -> float:
        """Total demand currently offered to the links of ``path``."""
        load = 0.0
        for link in path:
            for flow in self.fabric.active_flows:
                if flow.uses_link(link):
                    load += flow.demand_rate_bps
        return load

    def _schedule_round(self, now: float) -> None:
        for flow in self.elephants():
            if flow.state is not FlowState.ACTIVE:
                continue
            paths = self.router.equal_cost_paths(flow.src, flow.dst)
            if len(paths) <= 1:
                continue
            current_links = {l.link_id for l in flow.path}
            best_path = min(paths, key=self._path_load)
            if {l.link_id for l in best_path} != current_links:
                self.fabric.reroute_flow(flow, best_path)
                self.reroutes += 1
