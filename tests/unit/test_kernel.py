"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RngRegistry


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, lambda: fired.append("c"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(2.0, lambda: fired.append("b"))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        q = EventQueue()
        fired = []
        for name in "abcde":
            q.push(1.0, lambda n=name: fired.append(n))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list("abcde")

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, lambda: fired.append("x"))
        q.push(2.0, lambda: fired.append("y"))
        event.cancel()
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["y"]

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        event.cancel()
        assert q.peek_time() == 5.0

    def test_len_counts_pending(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert q.pop() is None


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_call_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(2.0, lambda: times.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert times == [1.0, 3.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.pending_events == 1

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run(max_events=7)
        assert count[0] == 7

    def test_stop_requests_exit(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_run_until_quiescent_raises_on_runaway(self):
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        with pytest.raises(SimulationError):
            sim.run_until_quiescent(max_events=100)

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def inner():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, inner)
        sim.run()


class TestRngRegistry:
    def test_streams_are_reproducible(self):
        a = RngRegistry(42).stream("net")
        b = RngRegistry(42).stream("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        reg = RngRegistry(42)
        net = reg.stream("net")
        before = reg.stream("workload").random()
        # Draining one stream must not disturb the other.
        reg2 = RngRegistry(42)
        for _ in range(100):
            reg2.stream("net").random()
        assert reg2.stream("workload").random() == before

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("net").random()
        b = RngRegistry(2).stream("net").random()
        assert a != b

    def test_same_stream_returned_on_repeat_access(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")
