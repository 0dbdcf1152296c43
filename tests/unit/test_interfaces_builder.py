"""Unit tests for AppMessage, the protocol registry and the builder."""

import pytest

from repro.core.interfaces import AppMessage, MessageCatalog
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.builder import PROTOCOLS, SystemSpec, build_system


class TestAppMessage:
    def test_dest_groups_normalised(self):
        msg = AppMessage(mid="m", sender=0, dest_groups=(2, 0, 2))
        assert msg.dest_groups == (0, 2)

    def test_wire_roundtrip(self):
        msg = AppMessage(mid="m", sender=3, dest_groups=(1, 2),
                         payload=("x", 1))
        assert AppMessage.from_wire(msg.to_wire()) == msg

    def test_minted_ids_unique_and_ordered(self):
        catalog = MessageCatalog()
        assert catalog.mint(2) == ["m000000", "m000001"]
        assert catalog.mint(1) == ["m000002"]
        assert catalog.mint(0) == []

    def test_cast_respects_explicit_mid(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        assert system.cast(0, (0,), mid="custom").mid == "custom"
        assert system.cast(0, (0,)).mid == "m000000"

    def test_messages_are_hashable_and_orderable(self):
        a = AppMessage(mid="a", sender=0, dest_groups=(0,))
        b = AppMessage(mid="b", sender=0, dest_groups=(0,))
        assert len({a, b}) == 2
        assert a < b


class TestProtocolRegistry:
    def test_all_protocols_constructible(self):
        for name in PROTOCOLS:
            system = build_system(
                SystemSpec(protocol=name, group_sizes=[2, 2]),
                seed=1)
            assert len(system.endpoints) == 4

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_system(SystemSpec(protocol="nope", group_sizes=[2, 2]))

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            build_system(
                SystemSpec(protocol="a1", group_sizes=[2, 2],
                           detector="psychic"))

    def test_unknown_option_rejected(self):
        """Unknown keywords reach the protocol constructor and fail
        there; ``profile`` is not a build option."""
        with pytest.raises(TypeError, match="profile"):
            build_system(
                SystemSpec(protocol="a1", group_sizes=[2, 2],
                           protocol_kwargs=(("profile", True),)))

    def test_eventually_perfect_detector_option(self):
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       detector="eventually-perfect", stabilise_at=5.0),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        for pid in range(4):
            assert system.log.sequence(pid) == [msg.mid]


class TestSystemCasting:
    def test_default_destinations_are_all_groups(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        msg = system.cast(sender=0)
        assert msg.dest_groups == (0, 1)

    def test_broadcast_protocol_rejects_partial_destinations(self):
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=1)
        with pytest.raises(ValueError, match="broadcast protocol"):
            system.cast(sender=0, dest_groups=(0,))

    def test_cast_at_rejects_partial_destinations_for_broadcast(self):
        """cast_at applies the same validation as cast, at scheduling
        time — a partial destination set must not silently reach
        a_bcast when the event fires."""
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=1)
        with pytest.raises(ValueError, match="broadcast protocol"):
            system.cast_at(1.0, 0, dest_groups=(0,))
        system.run_quiescent()
        assert system.log.cast_map == {}

    def test_cast_at_accepts_full_destinations_for_broadcast(self):
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=1)
        msg = system.cast_at(1.0, 0, dest_groups=(0, 1))
        system.run_quiescent()
        assert msg.mid in system.log.cast_map

    def test_cast_at_meters_at_fire_time(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        msg = system.cast_at(5.0, 0, (0, 1))
        assert system.meter.record_for(msg.mid) is None  # not yet cast
        system.run_quiescent()
        assert system.meter.record_for(msg.mid).cast_time == 5.0

    def test_crash_schedule_validated_at_build(self):
        with pytest.raises(ValueError, match="majority"):
            build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                         crashes=CrashSchedule({0: 1.0}))

    def test_seed_reproducibility(self):
        def run(seed):
            system = build_system(
                SystemSpec(protocol="a1", group_sizes=[3, 3]),
                seed=seed)
            for i in range(4):
                system.cast_at(float(i), i % 6, (0, 1))
            system.run_quiescent()
            return (tuple(system.log.sequence(0)),
                    system.inter_group_messages,
                    system.sim.now)

        assert run(9) == run(9)
        # (With the logical latency model all distributions are fixed,
        # so different seeds may legitimately coincide; determinism per
        # seed is the property that matters.)

    def test_stats_shortcuts(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        assert system.inter_group_messages > 0
        assert system.intra_group_messages > 0
        assert set(system.degrees().values()) == {2}


class TestCrashScheduleUnit:
    def test_validate_requires_correct_member(self):
        topo = Topology([1, 1])
        with pytest.raises(ValueError, match="no correct process"):
            CrashSchedule({0: 1.0}).validate(topo, require_majority=False)

    def test_random_minority_always_valid(self):
        import random

        topo = Topology([3, 5, 4])
        for seed in range(20):
            schedule = CrashSchedule.random_minority(
                topo, random.Random(seed), crash_probability=0.9)
            schedule.validate(topo)

    def test_correct_processes(self):
        topo = Topology([2, 2])
        schedule = CrashSchedule({1: 5.0})
        assert schedule.correct_processes(topo) == [0, 2, 3]
        assert schedule.is_faulty(1)
        assert schedule.crash_time(1) == 5.0
        assert schedule.crash_time(0) is None
