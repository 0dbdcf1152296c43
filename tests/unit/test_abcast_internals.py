"""White-box tests of Algorithm A2's round machinery."""

import pytest

from repro.checkers.properties import PropertyViolation, check_all
from repro.checkers.quiescence import check_quiescence
from repro.core import abcast
from repro.net.topology import Fixed, LatencyModel
from repro.runtime.builder import SystemSpec, build_system
from repro.workload.generators import poisson_workload, schedule_workload


def _slow_wan():
    return LatencyModel(intra=Fixed(0.01), inter=Fixed(10.0))


class TestRoundProgression:
    def test_round_counter_advances_per_completed_round(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)
        system.run_quiescent()
        endpoint = system.endpoints[0]
        # Round 1 (useful) + round 2 (empty) completed: K is now 3.
        assert endpoint.k == 3
        assert endpoint.rounds_executed == 2

    def test_rounds_lock_step_across_groups(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                              seed=2)
        for i in range(3):
            system.cast_at(float(i), i % 6)
        system.run_quiescent()
        ks = {system.endpoints[p].k for p in range(6)}
        assert len(ks) == 1  # every process finished the same round

    def test_bundle_for_future_round_is_buffered(self):
        """Lines 8-10: a bundle for round x > K parks in Msgs and
        pushes Barrier so the round eventually runs."""
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2], latency=_slow_wan()),
            seed=1)
        system.cast(sender=0)
        probe = system.endpoints[2]  # group 1 observer

        barrier_seen = []

        def watch():
            barrier_seen.append(probe.barrier)
            if system.sim.pending_events:
                system.sim.schedule(1.0, watch)

        system.sim.schedule(0.5, watch)
        system.run_quiescent()
        # Group 1 was idle (Barrier 0) until group 0's round-1 bundle
        # arrived and lifted the barrier to 1.
        assert 0 in barrier_seen and max(barrier_seen) >= 1

    def test_empty_bundles_are_proposed_when_barrier_demands(self):
        """Line 12 may propose the empty set."""
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)  # only group 0 has traffic
        system.run_quiescent()
        # Group 1 delivered group 0's message yet never R-Delivered
        # anything itself: its bundles were empty sets.
        endpoint = system.endpoints[2]
        assert endpoint.fresh == endpoint._heard == set()
        assert len(system.log.sequence(2)) == 1


class TestBarrierLogic:
    def test_barrier_static_without_deliveries(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.start_rounds()  # Barrier 1, round 1 runs empty
        system.run_quiescent()
        endpoint = system.endpoints[0]
        assert endpoint.barrier == 1
        assert endpoint.rounds_executed == 1  # exactly one empty round

    def test_useful_round_extends_barrier(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)
        system.run_quiescent()
        endpoint = system.endpoints[0]
        # Round 1 delivered -> Barrier moved to 2; round 2 was empty.
        assert endpoint.barrier == 2

    def test_restart_lifts_remote_barriers(self):
        """Line 10 is the restart path for prediction mistakes."""
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)
        system.cast_at(50.0, 0)  # after quiescence
        system.run_quiescent()
        remote = system.endpoints[2]
        assert remote.barrier >= 3
        assert len(system.log.sequence(2)) == 2


class TestBundleHygiene:
    def test_completed_round_state_garbage_collected(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        for i in range(4):
            system.cast_at(float(i), 0)
        system.run_quiescent()
        endpoint = system.endpoints[0]
        assert endpoint.msgs == {}       # no bundle leaks
        assert endpoint.fresh == set()   # everything moved to delivered

    def test_duplicate_bundles_ignored(self):
        """Several senders per group send the same bundle; the first
        copy wins and the rest are redundant by consensus agreement."""
        system = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                              seed=3)
        msg = system.cast(sender=0)
        system.run_quiescent()
        for pid in range(6):
            assert system.log.sequence(pid) == [msg.mid]

    def test_no_message_rides_two_rounds(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=4)
        for i in range(5):
            system.cast_at(i * 0.3, i % 4)
        system.run_quiescent()
        for pid in range(4):
            seq = system.log.sequence(pid)
            assert len(seq) == len(set(seq)) == 5


class TestProposeDelayWindow:
    def test_delayed_proposal_rereads_backlog(self):
        """A cast landing inside the bundling window joins the round."""
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       protocol_kwargs=(("propose_delay", 1.0),)),
            seed=1)
        early = system.cast_at(0.0, 0)
        late = system.cast_at(0.5, 1)  # lands inside p0's window
        system.run_quiescent()
        # Both messages must share round 1 (delivered consecutively
        # with no empty round between).
        endpoint = system.endpoints[0]
        assert endpoint.useful_rounds == 1
        assert set(system.log.sequence(0)) == {early.mid, late.mid}

    def test_zero_delay_is_immediate(self):
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       protocol_kwargs=(("propose_delay", 0.0),)),
            seed=1)
        system.cast(sender=0)
        system.run_quiescent()
        assert system.endpoints[0].useful_rounds == 1

    def test_window_does_not_break_quiescence(self):
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       protocol_kwargs=(("propose_delay", 5.0),)),
            seed=1)
        system.cast(sender=0)
        system.run_quiescent(max_events=500_000)  # must drain


def _loaded(seed=42, rate=100.0, duration=4.0, sizes=(3, 3, 3),
            trace=False):
    """A warm (3,3,3) system with a Poisson plan scheduled on it."""
    system = build_system(SystemSpec(protocol="a2", group_sizes=sizes),
                          seed=seed, trace=trace)
    system.start_rounds()
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=rate,
        duration=duration))
    return system


class TestTwoRoundsInFlight:
    def test_second_round_is_used_and_never_a_third(self):
        system = _loaded()
        ahead = set()
        while system.sim.pending_events:
            system.run(max_events=1)
            ahead.update(ep.prop_k - ep.k for ep in system.endpoints.values())
        assert ahead == {0, 1, 2}
        assert abcast.ROUNDS_IN_FLIGHT == 2

    def test_invariants_hold_at_every_event_boundary(self):
        """A ÷20 ``a2_bcast`` plan, one kernel event at a time."""
        system = _loaded(duration=15.0)
        while system.sim.pending_events:
            system.run(max_events=1)
            for endpoint in system.endpoints.values():
                endpoint.inv()
        assert len(system.log.sequence(0)) > 1400
        check_all(system.log, system.topology)

    def test_inv_catches_a_reproposed_mid(self):
        """A delivered mid still waiting for its R-Deliver (p2 gets
        every cast 3 late, after it delivered it) must not be offered
        again."""
        system = _loaded(duration=4.0)
        system.network.add_delay_hook(
            lambda msg, delay: delay + 3.0
            if msg.kind == "abc.rmc.data" and msg.dst == 2 else delay)
        endpoint = system.endpoints[2]
        while not endpoint._unheard:
            assert system.sim.pending_events
            system.run(max_events=1)
        endpoint.inv()
        endpoint.fresh.add(next(iter(endpoint._unheard)))
        with pytest.raises(AssertionError):
            endpoint.inv()

    def test_check_all_catches_a_reproposed_heard_mid(self):
        """Once heard and delivered, a mid is nowhere in the endpoint's
        state: re-proposing it delivers it twice, which the integrity
        pass reports."""
        system = _loaded(duration=4.0)
        system.run(until=3.0)
        endpoint = system.endpoints[0]
        delivered = system.log.sequence(0)[0]
        endpoint.fresh.add(delivered)
        endpoint._heard.add(delivered)
        system.run_quiescent()
        with pytest.raises(PropertyViolation, match="more than once"):
            check_all(system.log, system.topology)

    def test_late_rdeliver_of_a_decided_mid_is_not_reproposed(self):
        """p2 R-Delivers every cast 0.3 late — after p0 and p1 decided
        the round carrying it — and must not offer it to the next."""
        system = _loaded(duration=6.0)

        def slow_copy_to_p2(msg, delay):
            if msg.kind == "abc.rmc.data" and msg.dst == 2:
                return delay + 0.3
            return delay

        system.network.add_delay_hook(slow_copy_to_p2)
        proposals = []
        consensus = system.endpoints[2].consensus
        propose = consensus.propose
        consensus.propose = lambda k, value: (
            proposals.append((k, value)), propose(k, value))
        late = 0
        while system.sim.pending_events:
            system.run(max_events=1)
            endpoint = system.endpoints[2]
            endpoint.inv()
            late += bool(endpoint._in_flight - endpoint._heard)
        assert late > 100  # the hook did create the situation
        decided = {}
        for k in range(1, system.endpoints[2].k):
            decided[k] = set(consensus.decision(k))
        for k, value in proposals:
            earlier = set().union(*(decided[x] for x in decided if x < k))
            assert earlier.isdisjoint(value), (k, earlier & set(value))
        bundles = [decided[k] for k in sorted(decided)]
        assert sum(map(len, bundles)) == len(set().union(*bundles))
        check_all(system.log, system.topology)

    def test_decision_learned_first_replaces_the_proposal(self):
        """Bundles reach p2 0.2 late, so it completes every round after
        p0 and p1 have proposed and decided the one it may propose next:
        it must skip that round, not propose into a decided instance."""
        system = _loaded(duration=6.0)
        system.network.add_delay_hook(
            lambda msg, delay: delay + 0.2
            if msg.kind == "abc.bundle" and msg.dst == 2 else delay)
        endpoint = system.endpoints[2]
        consensus = endpoint.consensus
        propose = consensus.propose
        into_decided = []
        proposed = []

        def watched(k, value):
            if consensus.decided(k):
                into_decided.append(k)
            proposed.append(k)
            propose(k, value)

        consensus.propose = watched
        while system.sim.pending_events:
            system.run(max_events=1)
            endpoint.inv()
        assert into_decided == []
        # + 1: start_rounds proposed round 1 before the wrapper went in.
        assert endpoint.rounds_executed - (len(proposed) + 1) > 5
        check_all(system.log, system.topology)

    def test_one_sided_load_runs_exactly_the_one_round_schedule(self,
                                                                monkeypatch):
        """Only group 0 casts: the other groups' bundles are empty, the
        extra round is never started, and the run is event for event
        the run of one round in flight."""
        def run():
            system = build_system(
                SystemSpec(protocol="a2", group_sizes=[3, 3, 3]),
                seed=42)
            system.start_rounds()
            plans = poisson_workload(
                system.topology, system.rng.stream("wl"), rate=100.0,
                duration=4.0, senders=[0, 1, 2])
            for plan in plans:
                system.cast_at(plan.time, plan.sender)
            system.run_quiescent()
            return (system.sim.events_executed,
                    [(r.msg.mid, r.delivery_time) for r in
                     system.meter.records()])

        two = run()
        monkeypatch.setattr(abcast, "ROUNDS_IN_FLIGHT", 1)
        assert run() == two

    def test_burst_then_idle_drains_with_one_trailing_empty_round(self):
        system = _loaded(duration=3.0, trace=True)
        report = check_quiescence(system.sim, system.network.trace)
        assert report.quiescent
        for endpoint in system.endpoints.values():
            endpoint.inv()
            assert endpoint.blocked_on() is None
            assert endpoint.msgs == {} and endpoint._own_bundle == {}
            assert endpoint.fresh == set() and endpoint._in_flight == set()
            # Rounds after the last useful one: exactly the paper's one.
            assert endpoint.k - 1 - endpoint._last_useful == 1
            assert not endpoint._timer_armed
        # Round 1 (warm-up, before any cast) and the trailing one.
        endpoint = system.endpoints[0]
        assert endpoint.rounds_executed - endpoint.useful_rounds == 2

    def test_rounds_delivered_in_order_each_exactly_once(self):
        """Under jittered WAN links decisions and bundles of rounds K
        and K+1 arrive in either order; delivery stays by round."""
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3, 3],
                       latency=LatencyModel.wan()),
            seed=9)
        system.start_rounds()
        schedule_workload(system, poisson_workload(
            system.topology, system.rng.stream("wl"), rate=0.5,
            duration=1500.0))
        completed = {pid: [] for pid in system.endpoints}
        overlapped = 0
        while system.sim.pending_events:
            system.run(max_events=1)
            for pid, endpoint in system.endpoints.items():
                endpoint.inv()
                overlapped += endpoint.prop_k == endpoint.k + 2
                if not completed[pid] or completed[pid][-1] != endpoint.k:
                    completed[pid].append(endpoint.k)
        for pid, ks in completed.items():
            assert ks == list(range(1, system.endpoints[pid].k + 1))
        assert overlapped > 1000  # the second round was in flight
        assert len(system.log.sequence(0)) > 600
        check_all(system.log, system.topology)


class TestBlockedOn:
    def test_names_head_round_and_missing_groups(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2, 2]),
                              seed=1)
        assert system.endpoints[0].blocked_on() is None
        system.cast(sender=0)
        system.run(until=0.5)
        # Group 0 decided round 1; nobody else has heard of it yet.
        assert system.endpoints[0].blocked_on() == abcast.RoundWait(
            1, True, (1, 2))
        assert system.endpoints[2].blocked_on() is None
        system.run(until=1.5)
        assert system.endpoints[2].blocked_on() == abcast.RoundWait(
            1, True, (2,))
        system.run_quiescent()
        assert all(ep.blocked_on() is None
                   for ep in system.endpoints.values())
