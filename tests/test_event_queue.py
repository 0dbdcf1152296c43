"""Cancellation semantics, determinism and reserved slots of the event queue.

The engine refactor made ``len(queue)`` (and therefore
``Simulator.pending_events``) track *live* events exactly: cancelled
events still occupy heap slots until lazily pruned, but must never be
counted, and ``Simulator.run`` must see a queue of cancelled stragglers
as drained.

Reserved slots (``reserve`` / ``push_reserved``) extend the pinned
``(time, seq)`` contract: an event materialised later fires exactly
where a ``schedule`` at reservation time would have.  A plan
(``call_at_each`` on a ``reserve_block``) fires each item where one
``call_at`` per item would have, holding one heap entry.
"""

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import SimulationError, Simulator


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

    Every seeded run's event order rests on equal-timestamp scheduling
    order, so changing it silently changes every fingerprint.
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


class TestReservedSlots:
    """Reserve a ``(time, seq)`` slot now, materialise it later or never."""

    @staticmethod
    def _run(deferred):
        """Fire order of a fixed schedule with colliding timestamps.

        ``x`` and ``y`` are scheduled between ordinary pushes, one from
        setup and one from inside an event; with ``deferred`` they only
        reserve their slot and are materialised by a later event.
        """
        sim = Simulator()
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

    def test_fires_where_a_schedule_at_reservation_time_would(self):
        reference = self._run(deferred=False)
        assert reference == ["a", "m", "x", "b", "a-child", "y", "a-child2"]
        assert self._run(deferred=True) == reference

    def test_reserving_costs_no_heap_entry_and_no_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.reserve_slot())
        sim.reserve_slot()
        assert sim.pending_events == 1
        sim.run_until_quiescent()
        assert sim.pending_events == 0
        assert sim.events_executed == 1
        assert sim.now == 1.0  # never advanced towards a reserved moment

    def test_slot_whose_moment_has_passed_is_refused(self):
        sim = Simulator()
        fired = []
        slots = []
        sim.schedule(1.0, lambda: slots.append(sim.reserve_slot()))
        sim.schedule(2.0, lambda: fired.append("two"))
        sim.run()
        assert sim.call_at_reserved(1.5, slots[0], lambda: None) is None
        assert sim.pending_events == 0
        assert fired == ["two"]

    def test_same_instant_slot_after_the_executing_event_is_accepted(self):
        """At the executing event's own instant the seq decides: a slot
        reserved before the running event was scheduled already had its
        turn, one reserved after it has not."""
        sim = Simulator()
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

    def test_materialised_event_is_cancellable(self):
        sim = Simulator()
        event = sim.call_at_reserved(1.0, sim.reserve_slot(), lambda: None)
        assert sim.pending_events == 1
        event.cancel()
        assert sim.pending_events == 0
        sim.run_until_quiescent()
        assert sim.events_executed == 0


class TestCallAtEach:
    """A whole plan queued at once, one heap entry at a time."""

    @staticmethod
    def _run(times, as_plan):
        """Fire order of a schedule whose plan items tie with events
        queued before the plan, after it, by an event while it runs and
        by the items themselves.  ``as_plan=False`` is the oracle: one
        ``call_at`` per item, in index order."""
        sim = Simulator()
        fired = []

        def item(name):
            fired.append(name)
            sim.schedule(0.0, lambda: fired.append(name + "-now"))

        def spawner():
            fired.append("s")
            sim.call_at(2.0, lambda: fired.append("s2"))
            sim.call_at(3.0, lambda: fired.append("s3"))

        sim.schedule(2.0, lambda: fired.append("b2"))
        names = [f"p{i}" for i in range(len(times))]
        if as_plan:
            sim.call_at_each(times, item, names)
        else:
            for when, name in zip(times, names):
                sim.call_at(when, lambda n=name: item(n))
        sim.schedule(1.0, spawner)
        sim.schedule(3.0, lambda: fired.append("a3"))
        sim.run()
        return fired, sim.events_executed

    def test_items_tie_exactly_where_one_call_at_each_would(self):
        times = [1.0, 2.0, 2.0, 3.0, 3.0]
        reference = self._run(times, as_plan=False)
        assert reference[0] == [
            "p0", "s", "p0-now",
            "b2", "p1", "p2", "s2", "p1-now", "p2-now",
            "p3", "p4", "a3", "s3", "p3-now", "p4-now"]
        assert self._run(times, as_plan=True) == reference

    def test_unsorted_times_fire_in_time_then_index_order(self):
        times = [3.0, 1.0, 2.0, 3.0, 2.0]
        reference = self._run(times, as_plan=False)
        fired, executed = self._run(times, as_plan=True)
        assert (fired, executed) == reference
        assert [n for n in fired if n[0] == "p" and "-" not in n] == [
            "p1", "p2", "p4", "p0", "p3"]

    def test_plan_queued_by_a_running_event_ties_as_call_ats_would(self):
        def run(as_plan):
            sim = Simulator()
            fired = []

            def queue_plan():
                fired.append("q")
                times, names = [1.0, 1.0, 2.0], ["x", "y", "z"]
                if as_plan:
                    sim.call_at_each(times, fired.append, names)
                else:
                    for when, name in zip(times, names):
                        sim.call_at(when, lambda n=name: fired.append(n))
                sim.call_at(1.0, lambda: fired.append("after"))

            sim.schedule(1.0, queue_plan)
            sim.schedule(1.0, lambda: fired.append("before"))
            sim.run()
            return fired

        assert run(as_plan=False) == ["q", "before", "x", "y", "after", "z"]
        assert run(as_plan=True) == run(as_plan=False)

    def test_a_queued_plan_counts_as_one_pending_event(self):
        sim = Simulator()
        fired = []
        sim.call_at_each([1.0, 2.0, 3.0], fired.append, ["a", "b", "c"])
        assert sim.pending_events == 1
        assert len(sim._queue._heap) == 1
        sim.schedule(1.5, lambda: None)
        assert sim.pending_events == 2
        assert sim.step() and fired == ["a"]
        assert sim.pending_events == 2  # the plan's next item, and 1.5
        sim.run_until_quiescent()
        assert fired == ["a", "b", "c"]
        assert sim.pending_events == 0
        assert sim.events_executed == 4

    def test_an_empty_plan_queues_and_mints_nothing(self):
        sim = Simulator()
        sim.call_at_each([], lambda item: None, [])
        assert sim.pending_events == 0
        assert sim.schedule(1.0, lambda: None).seq == 0

    def test_a_block_is_the_seqs_n_pushes_would_get(self):
        queue = EventQueue()
        assert queue.push(1.0, lambda: None).seq == 0
        assert queue.reserve_block(3) == 1
        assert queue.push(1.0, lambda: None).seq == 4

    def test_a_past_time_raises_before_anything_is_queued(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        fired = []
        with pytest.raises(SimulationError, match="cannot schedule at 1"):
            sim.call_at_each([6.0, 7.0, 1.0, 8.0], fired.append, "abcd")
        assert sim.pending_events == 0
        assert sim.schedule(1.0, lambda: None).seq == 1  # no seq minted
        sim.run()
        assert fired == []

    def test_times_and_items_must_align(self):
        with pytest.raises(ValueError):
            Simulator().call_at_each([1.0, 2.0], print, ["only one"])


class TestDrainedQueue:
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

    def test_run_after_drain_fires_work_scheduled_between_runs(self):
        """A drained queue ends ``run``; work a caller schedules after
        that fires on the next ``run``, from the clock where it stopped."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(("first", sim.now)))
        assert sim.run() == 1.0
        assert fired == [("first", 1.0)]
        sim.schedule(2.0, lambda: fired.append(("refill", sim.now)))
        assert sim.run() == 3.0
        assert fired == [("first", 1.0), ("refill", 3.0)]
        assert sim.pending_events == 0
