"""Integration tests for Algorithm A1 (genuine atomic multicast)."""

from repro.checkers.genuineness import check_genuineness
from repro.checkers.properties import check_all
from repro.failure.schedule import CrashSchedule
from repro.net.topology import LatencyModel
from repro.runtime.builder import SystemSpec, build_system
from repro.tools import render_waits
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


class TestBasicDelivery:
    def test_single_group_local_cast_degree_zero(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]), seed=1)
        m = s.cast(sender=0, dest_groups=(0,))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 0
        assert s.log.sequence(0) == [m.mid]
        assert s.log.sequence(3) == []

    def test_single_group_remote_cast_degree_one(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]), seed=1)
        m = s.cast(sender=0, dest_groups=(1,))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 1
        assert s.log.sequence(0) == []
        assert s.log.sequence(3) == [m.mid]

    def test_two_group_cast_degree_two(self):
        """Theorem 4.1: Δ(m, R) = 2 for a message to two groups."""
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]), seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2
        for pid in range(6):
            assert s.log.sequence(pid) == [m.mid]

    def test_three_group_cast_still_degree_two(self):
        """The latency degree is independent of the group count k."""
        s = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2, 2]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1, 2, 3))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_outside_caster_degree_two(self):
        """A caster outside every destination group also sees Δ = 2."""
        s = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(1, 2))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2
        assert s.log.sequence(0) == []

    def test_properties_hold_failure_free(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                         seed=7)
        for sender, dest in [(0, (0, 1)), (3, (1, 2)), (6, (0, 2)),
                             (1, (0,)), (4, (0, 1, 2))]:
            s.cast(sender=sender, dest_groups=dest)
        s.run_quiescent()
        check_all(s.log, s.topology)


class TestOrdering:
    def test_concurrent_casts_totally_ordered(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]), seed=3)
        a = s.cast(sender=0, dest_groups=(0, 1))
        b = s.cast(sender=3, dest_groups=(0, 1))
        s.run_quiescent()
        seq0, seq3 = s.log.sequence(0), s.log.sequence(3)
        assert set(seq0) == {a.mid, b.mid}
        assert seq0 == seq3  # same relative order everywhere

    def test_overlapping_destination_sets(self):
        """Pairwise ordering across partially overlapping destinations."""
        s = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2]),
                         seed=5)
        s.cast(sender=0, dest_groups=(0, 1))
        s.cast(sender=2, dest_groups=(1, 2))
        s.cast(sender=4, dest_groups=(0, 2))
        s.cast(sender=0, dest_groups=(0, 1, 2))
        s.run_quiescent()
        check_all(s.log, s.topology)

    def test_burst_of_messages_one_group(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3]), seed=2)
        messages = [s.cast(sender=i % 3, dest_groups=(0,)) for i in range(10)]
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert len(s.log.sequence(0)) == 10

    def test_poisson_mixed_workload(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                         seed=11)
        plans = poisson_workload(
            s.topology, s.rng.stream("wl"), rate=2.0, duration=10.0,
            destinations=uniform_k_groups(2),
        )
        schedule_workload(s, plans)
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert s.log.delivery_count() > 0


class TestGenuineness:
    def test_non_addressees_stay_silent(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2]),
                         seed=1, trace=True)
        s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        check_genuineness(s.network.trace, s.log, s.topology)
        # Group 2 (pids 4, 5) never touched the network.
        assert not ({4, 5} & s.network.trace.participants())

    def test_single_group_message_stays_local(self):
        s = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2]),
                         seed=1, trace=True)
        s.cast(sender=0, dest_groups=(0,))
        s.run_quiescent()
        assert s.network.stats.inter_group_messages == 0


class TestFaultTolerance:
    def test_caster_crash_after_cast(self):
        """Uniform agreement despite the caster dying immediately."""
        crashes = CrashSchedule({0: 0.5})
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]),
                         seed=1, crashes=crashes)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)
        # Every correct addressee delivered.
        for pid in (1, 2, 3, 4, 5):
            assert s.log.sequence(pid) == [m.mid]

    def test_minority_crashes_both_groups(self):
        crashes = CrashSchedule({1: 2.0, 4: 3.0})
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]),
                         seed=9, crashes=crashes)
        for i in range(5):
            s.cast(sender=(0, 3)[i % 2], dest_groups=(0, 1))
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)

    def test_leader_crash_mid_protocol(self):
        """Rank-0 (consensus leader) of one group dies mid-run."""
        crashes = CrashSchedule({0: 1.5})
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]),
                         seed=4, crashes=crashes)
        s.cast(sender=1, dest_groups=(0, 1))
        s.cast_at(3.0, 3, (0, 1))
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)

    def test_wan_latencies_with_crashes(self):
        crashes = CrashSchedule({2: 50.0, 5: 120.0})
        s = build_system(
            SystemSpec(protocol="a1", group_sizes=[3, 3, 3],
                       latency=LatencyModel.wan()),
            seed=13, crashes=crashes)
        plans = poisson_workload(
            s.topology, s.rng.stream("wl"), rate=0.02, duration=400.0,
            destinations=uniform_k_groups(2),
        )
        schedule_workload(s, plans)
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)


class TestStageSkipping:
    def test_noskip_variant_delivers_correctly(self):
        s = build_system(SystemSpec(protocol="a1-noskip", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        n = s.cast(sender=0, dest_groups=(0,))
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert s.meter.latency_degree(m.mid) == 2

    def test_skipping_reduces_intra_group_messages(self):
        """The paper's point: fewer consensus instances, same degree."""

        def run(protocol):
            s = build_system(SystemSpec(protocol=protocol, group_sizes=[3, 3]),
                             seed=1)
            for i in range(4):
                s.cast(sender=0, dest_groups=(0,))
            s.cast(sender=0, dest_groups=(0, 1))
            s.run_quiescent()
            check_all(s.log, s.topology)
            return s.intra_group_messages

        assert run("a1") < run("a1-noskip")


class TestLatencyUnderLoad:
    def test_overlapping_casts_still_deliver_at_two_hops(self):
        """The paper's number with casts in flight, not just in
        isolation: (3,3,3), two random groups per cast, Poisson 150 x 5
        on unit inter-group links.  Releasing s3 behind every smaller
        *proposal* read 3.0 here (one more inter-group hop as soon as
        casts overlap); released against lower bounds on the pending
        finals it is 2δ plus the skew between group clocks."""
        s = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                         seed=42)
        plans = poisson_workload(
            s.topology, s.rng.stream("wl"), rate=150.0, duration=5.0,
            destinations=uniform_k_groups(2),
        )
        schedule_workload(s, plans)
        # Mid-run, every endpoint names what its next delivery waits on.
        s.run(until=2.5)
        waits = render_waits(s.endpoints)
        assert "waits on" in waits
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert all(s.endpoints[pid].blocked_on() is None
                   for pid in s.endpoints)

        worst = sorted(r.worst_delivery_latency for r in s.meter.records())
        p50 = worst[len(worst) // 2]
        assert len(worst) > 600
        assert p50 <= 2.3, (
            f"p50 worst-destination latency {p50:.3f} > 2.3; at t=2.5:\n"
            f"{waits}")
        max_degree = max(d for d in s.meter.degrees().values()
                         if d is not None)
        assert max_degree <= 3, max_degree
