"""Cancellation semantics, determinism and reserved slots of the event queue.

The engine refactor made ``len(queue)`` (and therefore
``Simulator.pending_events``) track *live* events exactly: cancelled
events still occupy heap slots until lazily pruned, but must never be
counted, and the idle-hook refill check in ``Simulator.run`` must stay
exact in the presence of cancelled stragglers.

Reserved slots (``reserve`` / ``push_reserved``) extend the pinned
``(time, seq)`` contract: an event materialised later fires exactly
where a ``schedule`` at reservation time would have, on both the serial
queue and the parallel kernel's pedigree-keyed one.
"""

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.partition import (
    SETUP_BAND_BUILD,
    SETUP_BAND_WORKLOAD,
    GroupSequencedQueue,
    epoch_of,
    window_end,
)


class TestLiveCount:
    def test_cancel_excluded_from_len(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        a.cancel()
        assert len(q) == 1

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        a.cancel()
        a.cancel()
        assert len(q) == 0

    def test_cancel_after_pop_does_not_corrupt_count(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is a
        a.cancel()  # already fired; must not decrement the live count
        assert len(q) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.clear()
        a.cancel()
        q.push(1.0, lambda: None)
        assert len(q) == 1

    def test_revive_restores_a_cancelled_event_in_place(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        b = sim.schedule(1.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("c"))
        b.cancel()
        assert sim.pending_events == 2
        assert b.revive() is True
        assert b.revive() is False  # not cancelled any more
        assert sim.pending_events == 3
        sim.run()
        assert fired == ["a", "b", "c"]  # original (time, seq) position

    def test_revive_fails_once_the_tombstone_was_popped(self):
        sim = Simulator()
        early = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        early.cancel()
        sim.run()  # discards the tombstone on the way to t=2
        assert early.revive() is False
        assert early.cancelled and sim.pending_events == 0

    def test_revive_fails_on_fired_and_on_cleared_events(self):
        q = EventQueue()
        fired = q.push(1.0, lambda: None)
        assert q.pop() is fired
        fired.cancel()
        assert fired.revive() is False
        dropped = q.push(1.0, lambda: None)
        dropped.cancel()
        q.clear()
        assert dropped.revive() is False
        assert len(q) == 0

    def test_push_action_counts_and_pops(self):
        q = EventQueue()
        fired = []
        q.push_action(1.0, lambda: fired.append("x"))
        assert len(q) == 1
        event = q.pop()
        assert isinstance(event, Event)
        event.action()
        assert fired == ["x"] and len(q) == 0

    def test_pending_events_exact_after_cancel(self):
        sim = Simulator()
        keep = sim.schedule(5.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.time == 5.0


class TestDeterminism:
    def test_same_time_fires_in_scheduling_order(self):
        q = EventQueue()
        fired = []
        for name in "abcdef":
            q.push(3.0, lambda n=name: fired.append(n))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list("abcdef")

    def test_mixed_event_and_action_entries_keep_order(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("event"))
        q.push_action(1.0, lambda: fired.append("action"))
        q.push(1.0, lambda: fired.append("event2"))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["event", "action", "event2"]

    def test_cancelled_head_skipped_by_pop_and_peek(self):
        q = EventQueue()
        head = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        head.cancel()
        assert q.peek_time() == 2.0
        assert q.pop().time == 2.0


class TestTieBreakContract:
    """The ``(time, seq)`` tie-break is a pinned contract.

    The parallel kernel reproduces the serial total order from per-group
    sub-kernels, so equal-timestamp scheduling order is load-bearing —
    changing it silently breaks the bit-identical claim even though no
    single-queue test would notice.
    """

    def test_colliding_timestamps_pop_in_scheduling_order(self):
        q = EventQueue()
        fired = []
        # Interleave pushes at two colliding timestamps: each timestamp's
        # events must still pop in per-timestamp scheduling order.
        for i in range(8):
            t = 2.0 if i % 2 else 1.0
            q.push(t, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_events_scheduled_while_executing_sort_after_earlier_ties(self):
        """An event executing at time t schedules another event at t: the
        child must run after every event already queued for t."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"),
                                   sim.schedule(0.0, lambda: fired.append("a-child"))))
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "a-child"]


class TestGroupSequencedQueue:
    """Pedigree keys must embed the serial counter order."""

    def _bound_queue(self, gid=0):
        q = GroupSequencedQueue(gid)
        sim = Simulator(queue=q)
        q.bind(sim)
        return q, sim

    def test_setup_roots_order_by_band_then_group_then_counter(self):
        q0, _ = self._bound_queue(0)
        q1, _ = self._bound_queue(1)
        build0 = q0.reserve()
        q0.set_setup_band(SETUP_BAND_WORKLOAD)
        workload0 = q0.reserve()
        build1 = q1.reserve()
        # Build band sorts before workload band regardless of group;
        # within a band, group-major.
        assert build0 < build1 < workload0

    def test_runtime_children_follow_scheduling_moment_order(self):
        q, sim = self._bound_queue()
        fired = []
        # a, b, c are setup roots in scheduling order.
        sim.schedule(1.0, lambda: (fired.append("a"),
                                   sim.schedule(1.0, lambda: fired.append("a-child"))))
        sim.schedule(1.0, lambda: (fired.append("b"),
                                   sim.schedule(1.0, lambda: fired.append("b-child"))))
        sim.schedule(2.0, lambda: fired.append("c"))
        q.begin_run()
        sim.run()
        # a-child, b-child and c collide at t=2; serial order is
        # scheduling-moment order: c was scheduled during setup (before
        # the run), then a's child (a ran first at t=1), then b's.
        assert fired == ["a", "b", "c", "a-child", "b-child"]

    def test_keys_nest_parent_pedigrees(self):
        q, sim = self._bound_queue()
        parent = sim.schedule(1.0, lambda: None)
        q.begin_run()
        q.pop_entry()  # the kernel pops `parent` before executing it
        sim._now = 1.0
        child = sim.schedule(1.0, lambda: None)
        # seq = (scheduling time, parent's key, call index): structurally
        # shared, one 3-tuple per event.
        assert child.seq == (1.0, parent.seq, 0)
        assert child.seq[1] is parent.seq

    def test_remote_key_interleaves_where_sender_scheduled_it(self):
        """A cross-group arrival carries the sender's pedigree key and
        must sort against local events exactly as it would have in the
        one serial heap."""
        sender_q, sender_sim = self._bound_queue(0)
        dest_q, dest_sim = self._bound_queue(1)
        fired = []
        # Destination schedules a local event for t=2 during setup —
        # earliest possible scheduling moment.
        dest_sim.schedule(2.0, lambda: fired.append("local-early"))
        dest_q.begin_run()
        sender_q.begin_run()
        # Sender mints a copy's key while executing an event at t=1.0.
        sender_q._current = (1.0, (SETUP_BAND_BUILD, (0,), 0), None)
        sender_sim._now = 1.0
        remote_seq = sender_q.reserve()
        dest_q.push_reserved(2.0, remote_seq, lambda: fired.append("remote"))
        # A destination event scheduled at runtime t=1.5 — later moment.
        dest_q._current = (1.5, (SETUP_BAND_BUILD, (1,), 0), None)
        dest_sim._now = 1.5
        dest_sim.schedule(0.5, lambda: fired.append("local-late"))
        dest_sim.run()
        assert fired == ["local-early", "remote", "local-late"]


def _group_sim():
    """A sub-kernel simulator already past its setup phase."""
    queue = GroupSequencedQueue(0)
    sim = Simulator(queue=queue)
    queue.bind(sim)
    queue.begin_run()
    return sim


@pytest.mark.parametrize("make_sim", [Simulator, _group_sim],
                         ids=["EventQueue", "GroupSequencedQueue"])
class TestReservedSlots:
    """Reserve a ``(time, seq)`` slot now, materialise it later or never."""

    @staticmethod
    def _run(make_sim, deferred):
        """Fire order of a fixed schedule with colliding timestamps.

        ``x`` and ``y`` are scheduled between ordinary pushes, one from
        setup and one from inside an event; with ``deferred`` they only
        reserve their slot and are materialised by a later event.
        """
        sim = make_sim()
        fired = []
        slots = {}

        def place(name, when):
            if deferred:
                slots[name] = (when, sim.reserve_slot())
            else:
                sim.call_at(when, lambda: fired.append(name))

        def materialise():
            fired.append("m")
            for name, (when, slot) in slots.items():
                event = sim.call_at_reserved(
                    when, slot, lambda n=name: fired.append(n))
                assert event is not None

        def first():
            fired.append("a")
            sim.schedule(4.0, lambda: fired.append("a-child"))
            place("y", 5.0)
            sim.schedule(4.0, lambda: fired.append("a-child2"))

        sim.schedule(1.0, first)
        place("x", 5.0)
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(3.0, materialise)
        sim.run()
        return fired

    def test_fires_where_a_schedule_at_reservation_time_would(self, make_sim):
        reference = self._run(make_sim, deferred=False)
        assert reference == ["a", "m", "x", "b", "a-child", "y", "a-child2"]
        assert self._run(make_sim, deferred=True) == reference

    def test_reserving_costs_no_heap_entry_and_no_event(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: sim.reserve_slot())
        sim.reserve_slot()
        assert sim.pending_events == 1
        sim.run_until_quiescent()
        assert sim.pending_events == 0
        assert sim.events_executed == 1
        assert sim.now == 1.0  # never advanced towards a reserved moment

    def test_slot_whose_moment_has_passed_is_refused(self, make_sim):
        sim = make_sim()
        fired = []
        slots = []
        sim.schedule(1.0, lambda: slots.append(sim.reserve_slot()))
        sim.schedule(2.0, lambda: fired.append("two"))
        sim.run()
        assert sim.call_at_reserved(1.5, slots[0], lambda: None) is None
        assert sim.pending_events == 0
        assert fired == ["two"]

    def test_same_instant_slot_after_the_executing_event_is_accepted(
            self, make_sim):
        """At the executing event's own instant the seq decides: a slot
        reserved before the running event was scheduled already had its
        turn, one reserved after it has not."""
        sim = make_sim()
        fired = []
        slots = {}

        def reserve_early():
            slots["early"] = sim.reserve_slot()
            sim.schedule(1.0, at_two)
            slots["late"] = sim.reserve_slot()

        def at_two():
            fired.append("two")
            assert sim.call_at_reserved(
                2.0, slots["early"], lambda: fired.append("early")) is None
            assert sim.call_at_reserved(
                2.0, slots["late"], lambda: fired.append("late")) is not None

        sim.schedule(1.0, reserve_early)
        sim.run()
        assert fired == ["two", "late"]

    def test_materialised_event_is_cancellable(self, make_sim):
        sim = make_sim()
        event = sim.call_at_reserved(1.0, sim.reserve_slot(), lambda: None)
        assert sim.pending_events == 1
        event.cancel()
        assert sim.pending_events == 0
        sim.run_until_quiescent()
        assert sim.events_executed == 0


class TestEpochArithmetic:
    def test_window_containment(self):
        assert epoch_of(0.0, 1.0) == 0
        assert epoch_of(0.999, 1.0) == 0
        assert epoch_of(1.0, 1.0) == 1  # windows are half-open
        assert epoch_of(7.25, 1.0) == 7

    def test_boundary_float_rounding(self):
        lookahead = 0.1  # not exactly representable
        for e in range(50):
            t = e * lookahead
            assert epoch_of(t, lookahead) == epoch_of(t, lookahead)
            ep = epoch_of(t, lookahead)
            assert ep * lookahead <= t < window_end(ep, lookahead)

    def test_window_end_is_exclusive_bound(self):
        assert window_end(3, 0.5) == 2.0
        assert epoch_of(window_end(3, 0.5), 0.5) == 4


class TestIdleHookRefill:
    def test_refill_runs_after_cancelled_stragglers(self):
        """Cancelled stragglers leave tombstones in the heap; the idle
        refill check must look through them — the hook still runs, and
        its freshly scheduled work still fires."""
        sim = Simulator()
        fired = []
        straggler = sim.schedule(50.0, lambda: fired.append("straggler"))
        refills = [0]

        def hook():
            if refills[0] == 0:
                refills[0] += 1
                straggler.cancel()
                sim.schedule(1.0, lambda: fired.append("refill"))

        sim.add_idle_hook(hook)
        sim.schedule(1.0, lambda: (fired.append("first"), straggler.cancel()))
        sim.run()
        assert fired == ["first", "refill"]

    def test_idle_hook_not_rerun_when_it_schedules_nothing(self):
        sim = Simulator()
        calls = [0]

        def hook():
            calls[0] += 1

        sim.add_idle_hook(hook)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert calls[0] == 1

    def test_run_drains_despite_cancelled_tail(self):
        sim = Simulator()
        tail = [sim.schedule(10.0 + i, lambda: None) for i in range(5)]
        for event in tail:
            event.cancel()
        end = sim.run()
        assert sim.pending_events == 0
        assert end == 0.0  # nothing live ever fired

    def test_run_until_quiescent_ignores_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        zombie = sim.schedule(2.0, lambda: None)
        zombie.cancel()
        sim.run_until_quiescent()
        assert sim.pending_events == 0
