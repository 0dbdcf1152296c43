"""White-box tests of the baseline protocols' distinctive mechanisms."""

from repro.net.topology import Fixed, LatencyModel
from repro.runtime.builder import SystemSpec, build_system


def _slow_inter():
    return LatencyModel(intra=Fixed(0.01), inter=Fixed(10.0))


class TestSkeenInternals:
    def test_clock_advances_past_finals(self):
        """Skeen's clock absorbs final timestamps, so later proposals
        can never undercut a delivered message."""
        system = build_system(SystemSpec(protocol="skeen", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        endpoint = system.endpoints[0]
        assert endpoint.clock >= 1
        assert endpoint.entries == {}  # everything finalised + delivered

    def test_pending_entry_blocks_delivery(self):
        """A known-but-unfinalised message gates later-finalised ones."""
        system = build_system(
            SystemSpec(protocol="skeen", group_sizes=[2, 2],
                       latency=_slow_inter()),
            seed=1)
        slow = system.cast(sender=0, dest_groups=(0, 1))
        fast = system.cast_at(0.5, 0, (0,))
        # The single-group message finalises quickly but both are held
        # to (final ts, id) order at every shared destination.
        system.run_quiescent()
        assert set(system.log.sequence(0)) == {slow.mid, fast.mid}

    def test_proposal_before_data_is_buffered(self):
        """Proposals may outrun the data copy; the stub must upgrade."""
        system = build_system(SystemSpec(
            protocol="skeen", group_sizes=[2, 2],
            # Inter-group faster than intra: remote proposals arrive
            # before the local data copy.
            latency=LatencyModel(intra=Fixed(5.0), inter=Fixed(0.1)),
        ), seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        for pid in range(4):
            assert system.log.sequence(pid) == [msg.mid]


class TestRingInternals:
    def test_floor_rises_with_finals(self):
        system = build_system(SystemSpec(protocol="ring", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        for pid in range(4):
            assert system.endpoints[pid].floor >= 1

    def test_group_blocks_while_message_in_flight(self):
        """One ring message at a time per group (the paper's 'waits for
        a final acknowledgment')."""
        system = build_system(
            SystemSpec(protocol="ring", group_sizes=[2, 2],
                       latency=_slow_inter()),
            seed=1)
        first = system.cast(sender=0, dest_groups=(0, 1))
        second = system.cast_at(0.5, 1, (0, 1))
        system.run(until=5.0)   # first handed off, final not yet back
        endpoint = system.endpoints[0]
        assert endpoint.current == first.mid
        assert second.mid in endpoint.pending  # queued, not handled
        system.run_quiescent()
        assert endpoint.current is None
        assert set(system.log.sequence(0)) == {first.mid, second.mid}

    def test_last_group_finalises_locally(self):
        """The final group never blocks (it needs no acknowledgment)."""
        system = build_system(
            SystemSpec(protocol="ring", group_sizes=[2, 2],
                       latency=_slow_inter()),
            seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run(until=15.0)  # handoff arrived at group 1, decided
        assert system.endpoints[2].current is None

    def test_handoff_timestamps_monotone_along_ring(self):
        """Each hop assigns max(incoming, K, floor): never decreases."""
        system = build_system(
            SystemSpec(protocol="ring", group_sizes=[2, 2, 2]),
            seed=2)
        for i in range(3):
            system.cast_at(float(i), 0, (0, 1, 2))
        system.run_quiescent()
        # Delivery order identical at every process of every group.
        seqs = {tuple(system.log.sequence(p)) for p in range(6)}
        assert len(seqs) == 1


class TestSequencerInternals:
    def test_noop_slots_fill_gaps(self):
        """A sequencer with no traffic announces empty slots on demand
        so the deterministic merge can pass its rank."""
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=1)
        msg = system.cast(sender=1)  # only group 0's sequencer emits
        system.run_quiescent()
        # Group 1's sequencer (pid 2) must have announced a no-op for
        # index 0, or nobody would have delivered.
        assert 0 in system.endpoints[2]._announced_noop
        for pid in range(4):
            assert system.log.sequence(pid) == [msg.mid]

    def test_majority_ack_required_before_final(self):
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=1)
        msg = system.cast(sender=1)
        system.run_quiescent()
        endpoint = system.endpoints[3]
        assert len(endpoint._acks.get(msg.mid, ())) >= 3  # majority of 4

    def test_slots_consumed_in_rank_order(self):
        system = build_system(
            SystemSpec(protocol="sequencer", group_sizes=[2, 2]),
            seed=2)
        a = system.cast_at(0.0, 1)
        b = system.cast_at(0.0, 3)
        system.run_quiescent()
        seqs = {tuple(system.log.sequence(p)) for p in range(4)}
        assert len(seqs) == 1  # one merge order everywhere


class TestOptimisticInternals:
    def test_optimistic_order_may_diverge_final_never(self):
        """The point of [12]: spontaneous order is only a guess."""
        system = build_system(SystemSpec(
            protocol="optimistic", group_sizes=[2, 2],
            # Heavy jitter maximises spontaneous-order mistakes.
            latency=LatencyModel(intra=Fixed(0.5), inter=Fixed(10.0)),
        ), seed=3)
        a = system.cast_at(0.0, 1)
        b = system.cast_at(0.05, 3)
        system.run_quiescent()
        final_orders = {tuple(system.log.sequence(p)) for p in range(4)}
        assert len(final_orders) == 1
        optimistic_orders = {
            tuple(system.endpoints[p].optimistic_deliveries)
            for p in range(4)
        }
        # Senders sit in different groups: each group sees its own
        # message first, so the optimistic guesses genuinely diverge.
        assert len(optimistic_orders) > 1

    def test_sequencer_gap_stalls_final_delivery_until_filled(self):
        system = build_system(
            SystemSpec(protocol="optimistic", group_sizes=[2, 2]),
            seed=1)
        msgs = [system.cast_at(0.1 * i, (1, 2, 3)[i % 3]) for i in range(5)]
        system.run_quiescent()
        for pid in range(4):
            assert len(system.log.sequence(pid)) == 5


class TestDetmergeInternals:
    def test_slot_cursor_walks_every_publisher(self):
        system = build_system(
            SystemSpec(protocol="detmerge", group_sizes=[2, 2]),
            seed=1)
        system.cast(sender=0)
        system.run_quiescent()
        endpoint = system.endpoints[3]
        index, rank = endpoint._cursor
        assert index >= 1  # passed at least the slot round carrying m

    def test_outbox_drains_into_next_slot(self):
        system = build_system(
            SystemSpec(protocol="detmerge", group_sizes=[2, 2]),
            seed=1)
        a = system.cast(sender=0)
        b = system.cast(sender=0)  # same tick window -> same slot
        system.run_quiescent()
        seq = system.log.sequence(2)
        assert set(seq) == {a.mid, b.mid}
        assert system.endpoints[0]._outbox == []

    def test_quiescent_after_traffic_stops(self):
        system = build_system(
            SystemSpec(protocol="detmerge", group_sizes=[2, 2]),
            seed=1)
        system.cast(sender=1)
        end = system.run_quiescent(max_events=200_000)
        assert end < 100.0  # no unbounded slot streaming
