"""Unit and integration tests for the heartbeat failure detector."""

import math
import random

import pytest

from repro.checkers.properties import check_all
from repro.consensus.paxos import GroupConsensus
from repro.core.amcast import AtomicMulticastA1
from repro.failure.heartbeat import HB_KIND, HeartbeatFailureDetector
from repro.failure.schedule import CrashSchedule
from repro.net.network import Network
from repro.net.topology import Fixed, Jittered, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


def _system(group_sizes=(3,), period=10.0, timeout=35.0, horizon=None,
            intra=Fixed(1.0)):
    sim = Simulator()
    topo = Topology(list(group_sizes))
    net = Network(sim, topo, LatencyModel(intra, Fixed(50.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, topo.group_of(pid), sim))
    fd = HeartbeatFailureDetector(sim, net, topo, period=period,
                                  timeout=timeout, horizon=horizon)
    return sim, topo, net, fd


class _SuspicionProbe:
    """Record every change of a detector's answers, sampled on a grid.

    Samples every same-group ordered pair (a group-scoped heartbeat
    detector never suspects across groups) at ``offset``, ``offset +
    every``, ... up to ``until``.  The grid is offset from the beat
    grid so a probe never ties with a beat or its arrival, which is
    how protocols see the detector: they query it, at their own times.
    """

    def __init__(self, sim, detector, topology, until, every=1.0,
                 offset=0.25):
        if every <= 0:
            raise ValueError("probe period must be positive")
        self.sim = sim
        self.detector = detector
        self.until = until
        self.every = every
        self.transitions = []   # (time, observer, peer, suspected)
        self._state = {}
        self._pairs = [(p, q) for gid in topology.group_ids
                       for p in topology.members(gid)
                       for q in topology.members(gid) if p != q]
        if sim.now + offset <= until:
            sim.schedule(offset, self._probe, label="test.probe")

    def _probe(self):
        now = self.sim.now
        for pair in self._pairs:
            suspected = self.detector.suspects(*pair)
            if suspected != self._state.get(pair, False):
                self._state[pair] = suspected
                self.transitions.append((now, pair[0], pair[1], suspected))
        if now + self.every <= self.until:
            self.sim.schedule(self.every, self._probe, label="test.probe")


def _expected_transitions(topology, crashes, period, timeout, delay,
                          until, horizon=None, every=1.0, offset=0.25):
    """The suspicions a :class:`_SuspicionProbe` must record.

    Worked out from the crash times alone.  Peer ``p`` beats at 0,
    ``period``, ... up to ``horizon`` while it is up (a crash at a beat
    instant preempts the beat: the crash event was queued first).
    Observer ``o`` hears each beat ``delay`` later unless it crashed
    first (again, a tie goes to the crash).  Once beats stop reaching
    ``o``, it suspects ``p`` from the first probe more than ``timeout``
    after the last arrival, and for good.
    """
    crash_at = crashes.crashes
    last_beat = until if horizon is None else min(until, horizon)
    expected = []
    for gid in topology.group_ids:
        members = topology.members(gid)
        for o in members:
            o_down = crash_at.get(o, math.inf)
            for p in members:
                if p == o:
                    continue
                p_down = crash_at.get(p, math.inf)
                seen = 0.0
                k = 0
                while k * period <= last_beat and k * period < p_down:
                    arrival = k * period + delay
                    if arrival < o_down and arrival <= until:
                        seen = arrival
                    k += 1
                at = offset + (math.floor((seen + timeout - offset) / every)
                               + 1) * every
                if at <= until:
                    expected.append((at, o, p, True))
    return sorted(expected)


def _advance(sim, t):
    """Advance the virtual clock to ``t``.

    A stopped detector schedules nothing, so an otherwise empty queue
    would leave ``sim.now`` at the last event; a sentinel no-op event
    pins the clock where the test wants to probe.
    """
    sim.call_at(t, lambda: None)
    sim.run(until=t)


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

    def test_crash_at_beat_instant_preempts_the_beat(self):
        """Suspicion starts strictly after the last beat's arrival.

        A crash at exactly a beat instant preempts the beat (the crash
        event was scheduled first), so the last beat of process 1 is at
        90, arriving at 91; suspicion begins strictly after 91 + 35.
        """
        sim, topo, net, fd = _system()
        sim.call_at(100.0, net.process(1).crash)
        transitions = []
        for t in (125.5, 126.5, 127.5):
            _advance(sim, t)
            transitions.append((t, fd.suspects(0, 1)))
        assert transitions == [(125.5, False), (126.5, True),
                               (127.5, True)]

    def test_stop_silences_every_peer_one_timeout_later(self):
        """Beats up to the stop instant count; later ones never fire."""
        sim, topo, net, fd = _system()
        _advance(sim, 95.0)
        fd.stop()
        probes = []
        # Last beat at 90, seen at 91; suspicion after 126.
        for t in (120.5, 126.5, 200.0):
            _advance(sim, t)
            probes.append((t, fd.suspects(0, 1)))
        assert probes == [(120.5, False), (126.5, True), (200.0, True)]

    def test_horizon_leaves_peers_suspected(self):
        sim, topo, net, fd = _system(horizon=50.0)
        _advance(sim, 300.0)
        # Last beat at 50 arrives at 51; by 300 everyone has been
        # silent for 249 > timeout.
        assert fd.suspects(0, 1)


    def test_last_heartbeat_is_latest_arrival(self):
        sim, topo, net, fd = _system()
        sim.run(until=50.0)
        # Beats at 0, 10, ..., 50 arrive one unit later; the beat of 50
        # is still in flight, so the latest arrival is 41.
        assert fd.last_heartbeat(0, 1) == 41.0
        assert fd.last_heartbeat(1, 0) == 41.0

    def test_jittered_intra_latency_keeps_accuracy(self):
        """Heartbeats need no fixed delay, only one below the slack."""
        sim, topo, net, fd = _system(intra=Jittered(1.0, 0.5))
        sim.call_at(100.0, net.process(1).crash)
        probe = _SuspicionProbe(sim, fd, topo, until=500.0)
        sim.run(until=500.0)
        assert {(o, p) for _, o, p, _ in probe.transitions} == {
            (0, 1), (2, 1), (1, 0), (1, 2)}
        assert all(suspected for *_, suspected in probe.transitions)
        assert not fd.suspects(0, 2) and not fd.suspects(2, 0)

    @pytest.mark.parametrize("offset", [0.0, 0.5, 1.0, 9.5])
    def test_crash_grid_suspicion_instants(self, offset):
        """Suspicion instants around one beat, crash by crash.

        Offset 0 crashes at a beat instant (the beat is preempted),
        0.5 between the peers' beat and its arrival at the crashed
        process, 1.0 exactly at that arrival (the crash goes first) and
        9.5 just before the next beat.
        """
        crashes = CrashSchedule({1: 100.0 + offset})
        sim, topo, net, fd = _system()
        crashes.apply(sim, net)
        probe = _SuspicionProbe(sim, fd, topo, until=200.0)
        sim.run(until=200.0)
        expected = _expected_transitions(topo, crashes, period=10.0,
                                          timeout=35.0, delay=1.0,
                                          until=200.0)
        assert probe.transitions == expected
        assert len(expected) == 4


class TestBeatTraffic:
    """What the detector puts on the wire, copy by copy."""

    def test_every_member_beats_every_peer_each_period(self):
        sim, topo, net, fd = _system(group_sizes=(3, 2))
        sim.run(until=95.0)
        # Ten ticks (0, 10, ..., 90) of 3*2 + 2*1 copies.
        assert net.stats.by_kind[HB_KIND] == 10 * 8
        assert net.stats.inter_group_messages == 0

    def test_crashed_member_stops_beating(self):
        sim, topo, net, fd = _system()
        sim.call_at(100.0, net.process(1).crash)
        sim.run(until=195.0)
        # Ticks 0..90 send 6 copies; from the crash at 100 (which
        # preempts that tick) the two live members still beat both
        # peers, the crashed one included.
        assert net.stats.by_kind[HB_KIND] == 10 * 6 + 10 * 4

    def test_horizon_bounds_traffic(self):
        sim, topo, net, fd = _system(horizon=50.0)
        sim.run_until_quiescent(max_events=100_000)
        assert net.stats.by_kind[HB_KIND] == 6 * 6  # ticks 0, 10, ..., 50

    def test_beats_travel_under_the_fd_hb_kind(self):
        # Meters and the fd-overhead tables select failure traffic by
        # this literal kind.
        assert HB_KIND == "fd.hb"
        sim, topo, net, fd = _system()
        sim.run(until=30.0)
        assert set(net.stats.by_kind) == {"fd.hb"}


class TestSuspicionProbe:
    def test_records_transitions_both_ways(self):
        """A suspicion that appears and clears yields two transitions."""

        class FlipFlop:
            def __init__(self, sim):
                self.sim = sim

            def suspects(self, p, q):
                return p == 0 and q == 1 and 10.0 < self.sim.now < 20.0

        sim = Simulator()
        probe = _SuspicionProbe(sim, FlipFlop(sim), Topology([2]),
                                until=30.0, offset=0.5)
        sim.run(until=30.0)
        # Probes at 10.5 ... 19.5 see True; 20.5 is the first False.
        assert probe.transitions == [(10.5, 0, 1, True),
                                     (20.5, 0, 1, False)]

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            _SuspicionProbe(Simulator(), None, Topology([2]), until=10.0,
                            every=0.0)


def _scenario(protocol, crashes, seed, rate=0.5, horizon=200.0):
    """A Poisson workload over two groups of three, heartbeats 5 / 20."""
    system = build_system(
        SystemSpec(protocol=protocol, group_sizes=(3, 3),
                   detector="heartbeat", heartbeat_period=5.0,
                   heartbeat_timeout=20.0, heartbeat_horizon=horizon),
        seed=seed, crashes=crashes)
    kwargs = ({"destinations": uniform_k_groups(2)}
              if protocol == "a1" else {})
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=rate,
        duration=80.0, **kwargs))
    if protocol == "a2":
        system.start_rounds()
    return system


def _run_probed(system, until=260.0):
    """Run under a probe; the property checkers must pass."""
    probe = _SuspicionProbe(system.sim, system.detector, system.topology,
                            until=until)
    system.run(until=until)
    check_all(system.log, system.topology, system.crashes)
    return probe.transitions


def _expected_for(system, until=260.0):
    return _expected_transitions(
        system.topology, system.crashes, period=5.0, timeout=20.0,
        delay=0.001, until=until,
        horizon=system.detector.horizon)


class TestSuspicionTiming:
    """Suspicion instants of full protocol runs, against the crash times.

    Every run uses the logical latency model (intra-group delay 0.001)
    and is probed at quarter past each time unit.
    """

    def test_crash_free_run(self):
        # Horizon beyond the run: heartbeats never fall silent, so a
        # crash-free run records no suspicion at all.
        system = _scenario("a1", CrashSchedule.none(), seed=3,
                           horizon=300.0)
        assert _run_probed(system) == []
        assert system.network.stats.by_kind[HB_KIND] > 0
        assert len(system.log.cast_map) > 0

    def test_horizon_silences_every_pair(self):
        system = _scenario("a1", CrashSchedule.none(), seed=3)
        transitions = _run_probed(system)
        # Last beat at 200 arrives at 200.001: every pair at 220.25.
        assert transitions == _expected_for(system)
        assert {t for t, *_ in transitions} == {220.25}
        assert len(transitions) == 2 * 3 * 2

    def test_explicit_crashes(self):
        system = _scenario("a1", CrashSchedule({1: 40.0, 4: 70.0}), seed=5)
        transitions = _run_probed(system)
        assert transitions == _expected_for(system)
        # Last beats of 1 at 35 and of 4 at 65: suspected 20 later.
        assert (55.25, 0, 1, True) in transitions
        assert (85.25, 5, 4, True) in transitions

    def test_crash_at_exact_beat_instant(self):
        """A crash at a beat time preempts that beat."""
        system = _scenario("a1", CrashSchedule({2: 45.0}), seed=7)
        transitions = _run_probed(system)
        assert transitions == _expected_for(system)
        assert (60.25, 0, 2, True) in transitions  # last beat at 40

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_minority_crash_scenarios(self, seed):
        crashes = CrashSchedule.random_minority(
            Topology([3, 3]), RngRegistry(seed).stream("harness"),
            window=60.0)
        system = _scenario("a1", crashes, seed=seed)
        assert _run_probed(system) == _expected_for(system)

    def test_a2_broadcast(self):
        system = _scenario("a2", CrashSchedule({0: 50.0}), seed=11,
                           rate=0.3)
        transitions = _run_probed(system)
        assert transitions == _expected_for(system)
        assert (65.25, 1, 0, True) in transitions

    def test_oracle_tells_schedules_apart(self):
        """The expected stream is not vacuous: a wrong schedule fails."""
        system = _scenario("a1", CrashSchedule({1: 40.0}), seed=3)
        transitions = _run_probed(system)
        assert transitions == _expected_for(system)
        assert transitions != _expected_transitions(
            system.topology, CrashSchedule.none(), period=5.0,
            timeout=20.0, delay=0.001, until=260.0, horizon=200.0)


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
                lambda msgs, pid=pid: [log.record_delivery(pid, m)
                                       for m in msgs])
            endpoints[pid] = endpoint
        msg = AppMessage("m000000", sender=0, dest_groups=(0, 1))
        log.record_cast(msg)
        endpoints[0].a_mcast(msg)
        sim.run(until=500.0)
        check_all(log, topo)
        for pid in topo.processes:
            assert log.sequence(pid) == [msg.mid]

    def test_a1_over_heartbeats_with_crashes(self):
        """Crashed members get suspected and the run stays correct."""
        from repro.failure.schedule import CrashSchedule
        from repro.runtime.builder import SystemSpec, build_system
        from repro.workload.generators import (
            poisson_workload, schedule_workload, uniform_k_groups,
        )

        system = build_system(
            SystemSpec(protocol="a1", group_sizes=(3, 3),
                       detector="heartbeat", heartbeat_period=5.0,
                       heartbeat_timeout=20.0, heartbeat_horizon=200.0),
            seed=5, crashes=CrashSchedule({1: 40.0, 4: 70.0}))
        schedule_workload(system, poisson_workload(
            system.topology, system.rng.stream("wl"), rate=0.5,
            duration=80.0, destinations=uniform_k_groups(2)))
        system.run(until=150.0)
        fd = system.detector
        assert fd.suspects(0, 1) and fd.suspects(5, 4)
        assert not fd.suspects(0, 2)
        system.run_quiescent()
        assert len(system.log.cast_map) > 0
        check_all(system.log, system.topology, system.crashes)
