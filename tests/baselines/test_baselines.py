"""Tests for scheme specs, Hedera rerouting and VLB/ECMP path choice."""

import numpy as np
import pytest

from repro.baselines.hedera import HederaConfig, HederaScheduler
from repro.baselines.schemes import (
    RAND_TCP,
    SCDA_SCHEME,
    SCDA_SELECT_TCP,
    SchemeSpec,
    all_schemes,
)
from repro.baselines.vlb import ecmp_path_choice, vlb_path_choice
from repro.network.fabric import FabricSimulator
from repro.network.fattree import build_fat_tree
from repro.network.routing import EcmpRouter
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.sim.engine import Simulator


class TestSchemeSpec:
    def test_predefined_schemes_are_valid(self):
        for spec in all_schemes():
            assert spec.placement in ("random", "scda", "round-robin", "least-loaded")
            assert spec.transport in ("tcp", "scda", "ideal")

    def test_rand_tcp_matches_the_paper_baseline(self):
        assert RAND_TCP.placement == "random"
        assert RAND_TCP.transport == "tcp"
        assert not RAND_TCP.needs_controller

    def test_scda_scheme_needs_controller(self):
        assert SCDA_SCHEME.needs_controller
        assert SCDA_SELECT_TCP.needs_controller

    def test_unknown_placement_or_transport_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("x", placement="magic", transport="tcp")
        with pytest.raises(ValueError):
            SchemeSpec("x", placement="random", transport="udp")

    def test_scheme_names_are_unique(self):
        names = [s.name for s in all_schemes()]
        assert len(names) == len(set(names))


class TestVlbEcmp:
    def test_ecmp_choice_is_an_equal_cost_path(self):
        topo = build_fat_tree(k=4, num_clients=1)
        router = EcmpRouter(topo)
        a, b = topo.node("bs-0-0-0"), topo.node("bs-1-0-0")
        path = ecmp_path_choice(router, a, b, flow_id=3)
        assert path[0].src.node_id == "bs-0-0-0"
        assert path[-1].dst.node_id == "bs-1-0-0"
        assert len(path) == len(router.path(a, b))

    def test_vlb_path_reaches_destination(self):
        topo = build_fat_tree(k=4, num_clients=1)
        router = EcmpRouter(topo)
        rng = np.random.default_rng(0)
        a, b = topo.node("bs-0-0-0"), topo.node("bs-1-0-0")
        path = vlb_path_choice(router, a, b, rng)
        assert path[0].src.node_id == "bs-0-0-0"
        assert path[-1].dst.node_id == "bs-1-0-0"

    def test_vlb_uses_varied_intermediates(self):
        topo = build_fat_tree(k=4, num_clients=1)
        router = EcmpRouter(topo)
        rng = np.random.default_rng(1)
        a, b = topo.node("bs-0-0-0"), topo.node("bs-1-0-0")
        paths = {tuple(l.link_id for l in vlb_path_choice(router, a, b, rng)) for _ in range(12)}
        assert len(paths) >= 2


class TestHedera:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            HederaConfig(elephant_threshold_bytes=0.0)
        with pytest.raises(ValueError):
            HederaConfig(scheduling_interval_s=0.0)

    @pytest.mark.parametrize("field, message", [
        ("elephant_threshold_bytes", "elephant threshold must be positive"),
        ("scheduling_interval_s", "scheduling interval must be positive"),
    ])
    def test_nan_config_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            HederaConfig(**{field: float("nan")})

    def test_elephants_detected_by_transferred_bytes(self):
        topo = build_fat_tree(k=4, num_clients=1)
        sim = Simulator()
        fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
        router = EcmpRouter(topo)
        scheduler = HederaScheduler(
            fabric, router, HederaConfig(elephant_threshold_bytes=1e6, scheduling_interval_s=0.5)
        )
        big = fabric.start_flow(topo.node("bs-0-0-0"), topo.node("bs-1-0-0"), 1e9)
        small = fabric.start_flow(topo.node("bs-0-0-1"), topo.node("bs-1-0-1"), 1e4)
        sim.run(until=0.3)
        elephants = scheduler.elephants()
        assert big in elephants and small not in elephants

    def test_scheduler_reroutes_elephants_off_loaded_paths(self):
        topo = build_fat_tree(k=4, num_clients=1)
        sim = Simulator()
        fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
        router = EcmpRouter(topo)
        scheduler = HederaScheduler(
            fabric, router, HederaConfig(elephant_threshold_bytes=1e5, scheduling_interval_s=0.2)
        )
        scheduler.start()
        # Two elephants pinned (by shortest-path routing) onto the same links.
        fabric.start_flow(topo.node("bs-0-0-0"), topo.node("bs-1-0-0"), 5e9)
        fabric.start_flow(topo.node("bs-0-0-1"), topo.node("bs-1-0-1"), 5e9)
        sim.run(until=2.0)
        scheduler.stop()
        assert scheduler.reroutes >= 1

    def test_stop_prevents_further_rounds(self):
        topo = build_fat_tree(k=4, num_clients=1)
        sim = Simulator()
        fabric = FabricSimulator(sim, topo, IdealMaxMinTransport())
        scheduler = HederaScheduler(fabric, EcmpRouter(topo))
        scheduler.start()
        scheduler.stop()
        sim.run(until=1.0)
        assert scheduler.reroutes == 0
