"""Unit and integration tests for the heartbeat failure detector."""

import random

import pytest

from repro.checkers.properties import check_all
from repro.consensus.paxos import GroupConsensus
from repro.core.amcast import AtomicMulticastA1
from repro.failure.heartbeat import HeartbeatFailureDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.kernel import Simulator
from repro.sim.process import Process


def _system(group_sizes=(3,), period=10.0, timeout=35.0,
            mode="messages", horizon=None):
    sim = Simulator()
    topo = Topology(list(group_sizes))
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(50.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, topo.group_of(pid), sim))
    fd = HeartbeatFailureDetector(sim, net, topo, period=period,
                                  timeout=timeout, mode=mode,
                                  horizon=horizon)
    return sim, topo, net, fd


class TestDetectorBehaviour:
    def test_timeout_must_exceed_period(self):
        with pytest.raises(ValueError):
            _system(period=10.0, timeout=5.0)

    def test_no_false_suspicions_among_correct_processes(self):
        sim, topo, net, fd = _system()
        sim.run(until=500.0)
        for p in topo.processes:
            for q in topo.processes:
                assert not fd.suspects(p, q)

    def test_crashed_process_eventually_suspected(self):
        sim, topo, net, fd = _system()
        sim.call_at(100.0, net.process(1).crash)
        sim.run(until=100.0 + 35.0 + 15.0)
        assert fd.suspects(0, 1)
        assert fd.suspects(2, 1)

    def test_not_suspected_before_timeout(self):
        sim, topo, net, fd = _system()
        sim.call_at(100.0, net.process(1).crash)
        sim.run(until=110.0)
        assert not fd.suspects(0, 1)

    def test_self_never_suspected(self):
        sim, topo, net, fd = _system()
        sim.run(until=200.0)
        assert not fd.suspects(0, 0)

    def test_cross_group_peers_not_suspected(self):
        """Heartbeats are group-scoped; outsiders default to trusted."""
        sim, topo, net, fd = _system(group_sizes=(2, 2))
        sim.call_at(50.0, net.process(3).crash)
        sim.run(until=300.0)
        assert fd.suspects(2, 3)       # same group: suspected
        assert not fd.suspects(0, 3)   # other group: not covered

    def test_leader_election_moves_past_crash(self):
        sim, topo, net, fd = _system()
        sim.call_at(50.0, net.process(0).crash)
        sim.run(until=150.0)
        assert fd.leader(1, topo.members(0)) == 1

    def test_stop_ends_heartbeat_traffic(self):
        sim, topo, net, fd = _system()
        sim.run(until=100.0)
        fd.stop()
        sim.run_until_quiescent(max_events=100_000)  # drains now

    def test_stop_cancels_outstanding_beat_timers(self):
        """Regression: stop() must not leave beats in the queue.

        Before the fix, a stopped detector's pending beat still fired
        (as a no-op) one period later, delaying run_until_quiescent —
        the drain time must equal the stop time, not stop + period.
        """
        sim, topo, net, fd = _system(period=10.0, timeout=35.0)
        # Stop mid-period (beats at 90 delivered at 91): nothing is in
        # flight, so the only queued event is the next beat timer.
        sim.run(until=95.0)
        assert fd.pending_timers == 1
        fd.stop()
        assert fd.pending_timers == 0
        assert sim.pending_events == 0
        assert sim.run_until_quiescent(max_events=100_000) == 95.0

    def test_horizon_stops_beats_and_drains(self):
        sim, topo, net, fd = _system(period=10.0, timeout=35.0,
                                     horizon=50.0)
        end = sim.run_until_quiescent(max_events=100_000)
        # Last beat at 50, its copies arrive one intra delay later.
        assert end == 51.0
        assert fd.pending_timers == 0

    def test_one_timer_per_group_not_per_process(self):
        """Coalescing: n processes in g groups keep only g timers."""
        sim, topo, net, fd = _system(group_sizes=(4, 4, 4))
        sim.run(until=25.0)
        assert fd.pending_timers == 3

    def test_group_timer_dies_when_whole_group_crashes(self):
        sim, topo, net, fd = _system(group_sizes=(2, 2))
        net.process(2).crash()
        net.process(3).crash()
        sim.run(until=50.0)
        assert fd.pending_timers == 1  # only group 0 still beats

    def test_last_heartbeat_diagnostic(self):
        sim, topo, net, fd = _system()
        sim.run(until=50.0)
        assert fd.last_heartbeat(0, 1) is not None
        assert fd.last_heartbeat(0, 99) is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _system(mode="psychic")


def _advance(sim, t):
    """Advance the virtual clock to ``t``.

    The elided detector schedules nothing, so an otherwise empty queue
    would leave ``sim.now`` at the last event; a sentinel no-op event
    pins the clock where the test wants to probe.
    """
    sim.call_at(t, lambda: None)
    sim.run(until=t)


class TestElidedMode:
    """The analytic mode answers like message mode, with zero traffic."""

    def test_no_events_no_messages(self):
        sim, topo, net, fd = _system(mode="elided")
        assert sim.pending_events == 0
        assert sim.run_until_quiescent(max_events=10) == 0.0
        assert net.stats.total_messages == 0

    def test_no_false_suspicions_among_correct_processes(self):
        sim, topo, net, fd = _system(mode="elided")
        _advance(sim, 500.0)
        for p in topo.processes:
            for q in topo.processes:
                assert not fd.suspects(p, q)

    def test_crashed_process_eventually_suspected(self):
        sim, topo, net, fd = _system(mode="elided")
        sim.call_at(100.0, net.process(1).crash)
        _advance(sim, 150.0)
        assert fd.suspects(0, 1)
        assert fd.suspects(2, 1)
        assert not fd.suspects(0, 2)

    def test_not_suspected_before_timeout(self):
        sim, topo, net, fd = _system(mode="elided")
        sim.call_at(100.0, net.process(1).crash)
        _advance(sim, 110.0)
        assert not fd.suspects(0, 1)

    def test_suspicion_instant_matches_message_mode(self):
        """Transition times agree at sub-period probe resolution.

        A crash at exactly a beat instant preempts the beat (the crash
        event was scheduled first), so the last beat of process 1 is at
        90, arriving at 91; suspicion begins strictly after 91 + 35.
        """
        for mode in ("messages", "elided"):
            sim, topo, net, fd = _system(mode=mode)
            sim.call_at(100.0, net.process(1).crash)
            transitions = []
            for t in (125.5, 126.5, 127.5):
                _advance(sim, t)
                transitions.append((t, fd.suspects(0, 1)))
            assert transitions == [(125.5, False), (126.5, True),
                                   (127.5, True)], mode

    def test_cross_group_peers_not_suspected(self):
        sim, topo, net, fd = _system(group_sizes=(2, 2), mode="elided")
        sim.call_at(50.0, net.process(3).crash)
        _advance(sim, 300.0)
        assert fd.suspects(2, 3)
        assert not fd.suspects(0, 3)

    def test_horizon_caps_analytic_beats(self):
        sim, topo, net, fd = _system(mode="elided", horizon=50.0)
        _advance(sim, 300.0)
        # Last analytic beat at 50 arrives at 51; by 300 everyone has
        # been silent for 249 > timeout, exactly as message mode would.
        assert fd.suspects(0, 1)

    def test_jittered_intra_latency_rejected(self):
        from repro.net.topology import Jittered

        sim = Simulator()
        topo = Topology([3])
        net = Network(sim, topo, LatencyModel(Jittered(1.0, 0.5),
                                              Fixed(50.0)),
                      random.Random(0), trace=MessageTrace(False))
        for pid in topo.processes:
            net.register(Process(pid, topo.group_of(pid), sim))
        with pytest.raises(ValueError, match="fixed intra-group"):
            HeartbeatFailureDetector(sim, net, topo, mode="elided")

    def test_last_heartbeat_analytic(self):
        sim, topo, net, fd = _system(mode="elided")
        _advance(sim, 50.0)
        # Beats at 0, 10, ..., 50 arrive one unit later; last <= 50 is
        # the beat of 40, seen at 41.
        assert fd.last_heartbeat(0, 1) == 41.0
        assert fd.last_heartbeat(0, 99) is None

    def test_stop_caps_analytic_beats_like_message_mode(self):
        """After stop(), both modes fall silent at the same instant."""
        answers = {}
        for mode in ("messages", "elided"):
            sim, topo, net, fd = _system(mode=mode)
            _advance(sim, 95.0)
            fd.stop()
            probes = []
            # Last beat at 90, seen at 91; suspicion after 126.
            for t in (120.5, 126.5, 200.0):
                _advance(sim, t)
                probes.append((t, fd.suspects(0, 1)))
            answers[mode] = probes
        assert answers["messages"] == answers["elided"]
        assert answers["elided"] == [(120.5, False), (126.5, True),
                                     (200.0, True)]


class TestProtocolsOverHeartbeats:
    """The stacks need only the FailureDetector interface."""

    def test_consensus_decides_with_heartbeat_detector(self):
        sim, topo, net, fd = _system()
        decisions = {}
        stacks = {}
        for pid in topo.processes:
            stack = GroupConsensus(net.process(pid), topo.members(0), fd,
                                   retry_timeout=40.0)
            stack.set_decision_handler(
                lambda k, v, pid=pid: decisions.setdefault(pid, v))
            stacks[pid] = stack
        stacks[0].propose(1, ("value",))
        sim.run(until=300.0)
        assert decisions == {0: ("value",), 1: ("value",), 2: ("value",)}

    def test_consensus_survives_leader_crash(self):
        sim, topo, net, fd = _system(period=5.0, timeout=20.0)
        decisions = {}
        stacks = {}
        for pid in topo.processes:
            stack = GroupConsensus(net.process(pid), topo.members(0), fd,
                                   retry_timeout=30.0)
            stack.set_decision_handler(
                lambda k, v, pid=pid: decisions.setdefault(pid, v))
            stacks[pid] = stack
        net.process(0).crash()  # rank-0 leader is already gone
        stacks[1].propose(1, ("survivor",))
        sim.run(until=500.0)
        assert decisions.get(1) == ("survivor",)
        assert decisions.get(2) == ("survivor",)

    def test_a1_full_run_with_heartbeats(self):
        from repro.core.interfaces import AppMessage
        from repro.runtime.results import DeliveryLog

        sim, topo, net, fd = _system(group_sizes=(2, 2))
        log = DeliveryLog()
        endpoints = {}
        for pid in topo.processes:
            endpoint = AtomicMulticastA1(net.process(pid), topo, fd)
            endpoint.set_delivery_handler(
                lambda m, pid=pid: log.record_delivery(pid, m))
            endpoints[pid] = endpoint
        msg = AppMessage("m000000", sender=0, dest_groups=(0, 1))
        log.record_cast(msg)
        endpoints[0].a_mcast(msg)
        sim.run(until=500.0)
        check_all(log, topo)
        for pid in topo.processes:
            assert log.sequence(pid) == [msg.mid]
