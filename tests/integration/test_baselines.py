"""Integration tests for the Figure 1 baseline protocols."""

from repro.checkers.properties import check_all
from repro.runtime.builder import SystemSpec, build_system
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


def _run_workload(protocol, group_sizes, seed, rate=1.0, duration=8.0,
                  destinations=None):
    s = build_system(SystemSpec(protocol=protocol, group_sizes=group_sizes),
                     seed=seed)
    plans = poisson_workload(
        s.topology, s.rng.stream("wl"), rate=rate, duration=duration,
        destinations=destinations,
    )
    messages = schedule_workload(s, plans)
    s.run_quiescent()
    check_all(s.log, s.topology)
    return s, messages


class TestSkeen:
    def test_two_group_degree_two(self):
        s = build_system(SystemSpec(protocol="skeen", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_degree_constant_in_k(self):
        for k, sizes in [(2, [2, 2]), (3, [2, 2, 2]), (4, [2, 2, 2, 2])]:
            s = build_system(SystemSpec(protocol="skeen", group_sizes=sizes),
                             seed=1)
            m = s.cast(sender=0, dest_groups=tuple(range(k)))
            s.run_quiescent()
            assert s.meter.latency_degree(m.mid) == 2, f"k={k}"

    def test_total_order_under_load(self):
        s, _ = _run_workload("skeen", [3, 3], seed=2,
                             destinations=uniform_k_groups(2))

    def test_single_process_groups(self):
        s, _ = _run_workload("skeen", [1, 1, 1], seed=3,
                             destinations=uniform_k_groups(2))


class TestFritzke:
    def test_degree_two(self):
        s = build_system(SystemSpec(protocol="fritzke", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_total_order_under_load(self):
        _run_workload("fritzke", [3, 3], seed=4,
                      destinations=uniform_k_groups(2))

    def test_more_messages_than_a1(self):
        """[5]'s uniform rmcast + mandatory stage s2 cost extra traffic."""

        def totals(protocol):
            s = build_system(SystemSpec(protocol=protocol, group_sizes=[3, 3]),
                             seed=1)
            s.cast(sender=0, dest_groups=(0, 1))
            s.cast(sender=3, dest_groups=(0,))
            s.run_quiescent()
            return s.intra_group_messages + s.inter_group_messages

        assert totals("a1") < totals("fritzke")


class TestRing:
    def test_degree_grows_with_k(self):
        degrees = {}
        for k, sizes in [(2, [2, 2]), (3, [2, 2, 2]), (4, [2, 2, 2, 2])]:
            s = build_system(SystemSpec(protocol="ring", group_sizes=sizes),
                             seed=1)
            m = s.cast(sender=0, dest_groups=tuple(range(k)))
            s.run_quiescent()
            degrees[k] = s.meter.latency_degree(m.mid)
        # The caster sits in the first ring group: k-1 handoffs + final.
        assert degrees == {2: 2, 3: 3, 4: 4}
        assert degrees[4] > 2  # strictly worse than A1 for k >= 3

    def test_total_order_under_load(self):
        _run_workload("ring", [2, 2, 2], seed=5, rate=0.5,
                      destinations=uniform_k_groups(2))

    def test_single_group_message(self):
        s = build_system(SystemSpec(protocol="ring", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0,))
        s.run_quiescent()
        assert s.log.sequence(0) == [m.mid]
        assert s.log.sequence(3) == []

    def test_serialisation_blocks_second_message(self):
        """A group handles one ring message at a time, both delivered."""
        s = build_system(SystemSpec(protocol="ring", group_sizes=[2, 2]),
                         seed=6)
        a = s.cast(sender=0, dest_groups=(0, 1))
        b = s.cast(sender=1, dest_groups=(0, 1))
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert set(s.log.sequence(0)) == {a.mid, b.mid}

    def test_disjoint_rings_do_not_interfere(self):
        s = build_system(SystemSpec(protocol="ring", group_sizes=[2, 2, 2, 2]),
                         seed=7)
        a = s.cast(sender=0, dest_groups=(0, 1))
        b = s.cast(sender=4, dest_groups=(2, 3))
        s.run_quiescent()
        check_all(s.log, s.topology)


class TestGlobalConsensus:
    def test_degree_four(self):
        """[10]: ts exchange + cross-group consensus = 4 hops."""
        s = build_system(SystemSpec(protocol="global", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 4

    def test_total_order_under_load(self):
        _run_workload("global", [2, 2, 2], seed=8, rate=0.5,
                      destinations=uniform_k_groups(2))

    def test_single_group_message(self):
        s = build_system(SystemSpec(protocol="global", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=3, dest_groups=(1,))
        s.run_quiescent()
        assert s.log.sequence(3) == [m.mid]


class TestSequencerBroadcast:
    def test_degree_two(self):
        s = build_system(SystemSpec(protocol="sequencer", group_sizes=[3, 3]),
                         seed=1)
        # Cast from a non-sequencer process of group 0: the sequencer
        # (pid 0) is in the caster's group, so numbering costs no
        # inter-group hop and final delivery lands at degree 2.
        m = s.cast(sender=1)
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_total_order_under_load(self):
        _run_workload("sequencer", [3, 3], seed=9)

    def test_optimistic_precedes_final(self):
        s = build_system(SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
                         seed=1)
        m = s.cast(sender=1)
        s.run_quiescent()
        assert s.endpoints[3].optimistic_deliveries == [m.mid]

    def test_interleaved_senders_from_both_groups(self):
        s = build_system(SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
                         seed=2)
        for t, sender in [(0.0, 1), (0.1, 3), (0.2, 0), (0.3, 2)]:
            s.cast_at(t, sender)
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert len(s.log.sequence(0)) == 4


class TestOptimisticBroadcast:
    def test_final_degree_two_from_remote_group(self):
        s = build_system(SystemSpec(protocol="optimistic", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=3)  # sequencer is pid 0, in the other group
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_colocated_caster_degree_one(self):
        """The caster sharing the sequencer's group gets lucky: the
        ORDER rides the same hop as the DATA."""
        s = build_system(SystemSpec(protocol="optimistic", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0)
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 1

    def test_optimistic_delivery_is_immediate(self):
        s = build_system(SystemSpec(protocol="optimistic", group_sizes=[2, 2]),
                         seed=1)
        m = s.cast(sender=2)
        s.run_quiescent()
        for pid in range(4):
            assert m.mid in s.endpoints[pid].optimistic_deliveries

    def test_message_complexity_linear(self):
        """O(n) per message: n DATA + n ORDER copies."""
        s = build_system(SystemSpec(protocol="optimistic", group_sizes=[3, 3]),
                         seed=1)
        s.cast(sender=3)
        s.run_quiescent()
        n = s.topology.n_processes
        assert s.network.stats.total_messages == 2 * n

    def test_total_order_under_load(self):
        _run_workload("optimistic", [3, 3], seed=10)


class TestDeterministicMerge:
    def test_degree_one(self):
        """The strong-model protocol beats the genuine lower bound."""
        s = build_system(SystemSpec(protocol="detmerge", group_sizes=[3, 3]),
                         seed=1)
        m = s.cast(sender=0)
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 1

    def test_total_order_under_load(self):
        _run_workload("detmerge", [2, 2], seed=11, rate=2.0, duration=5.0)

    def test_run_is_finite(self):
        """The finite-run adaptation actually quiesces."""
        s = build_system(SystemSpec(protocol="detmerge", group_sizes=[2, 2]),
                         seed=1)
        s.cast(sender=0)
        s.cast_at(3.0, 2)
        s.run_quiescent(max_events=200_000)

    def test_merge_order_deterministic_across_processes(self):
        s = build_system(SystemSpec(protocol="detmerge", group_sizes=[2, 2]),
                         seed=12)
        for t, sender in [(0.0, 0), (0.05, 2), (0.1, 1), (0.15, 3)]:
            s.cast_at(t, sender)
        s.run_quiescent()
        sequences = {tuple(s.log.sequence(p)) for p in range(4)}
        assert len(sequences) == 1
