"""``PerfectDetector.call_if_suspected`` against the polling reference.

The base-class implementation queues one kernel event per check and
asks ``suspects`` when it fires — what reliable multicast's relay check
did on its own timer before.  The oracle override queues nothing until
the target crashes.  Both must fire the same checks in the same order,
ties included, and consume the same tie-break slots.

A perfect detector is told which processes may crash (``faulty``): a
built system's detector knows its crash schedule's victims, and the
``phase-crash`` injector declares its target when it is installed.  A
check on any other target is dropped with no slot reserved, and
reliable multicast, told so by ``can_suspect``, asks nothing about such
a sender at all, so a crash-free run makes no detector call from
rmcast and parks nothing; the crash of an undeclared process raises,
naming the pid, instead of losing the relays it skipped.
"""

import itertools
import random

import pytest

from repro.adversary.injectors import apply_adversary
from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.failure.detectors import FailureDetector, PerfectDetector
from repro.failure.schedule import CrashSchedule
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


class PollingPerfectDetector(PerfectDetector):
    """Same oracle, but every check polls: the reference behaviour."""

    call_if_suspected = FailureDetector.call_if_suspected


TARGET = 1


def _world(detector_cls, delay, **kw):
    sim = Simulator()
    topo = Topology([3])
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(10.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, 0, sim))
    return sim, net, detector_cls(sim, net, delay=delay, **kw)


def _scenario(detector_cls, crash_at, crash_slot, delay, register_at,
              relay_after):
    """Fire log of two checks on TARGET around one crash.

    The checks are registered at ``register_at`` with an ordinary event
    between them.  ``crash_slot`` picks the crash's tie-break position:
    ``"low"`` schedules it before anything else (it wins every tie),
    ``"high"`` schedules it from the registering event, *after* both
    registrations — so a crash at exactly ``when`` runs after checks
    that polled at ``when`` and must not resurrect them.
    """
    sim, net, fd = _world(detector_cls, delay)
    fired = []
    target = net.process(TARGET)
    when = register_at + relay_after

    def crash():
        fired.append(("crash", sim.now))
        target.crash()

    if crash_at is not None and crash_slot == "low":
        sim.call_at(crash_at, crash)

    def register():
        fd.call_if_suspected(sim, 0, TARGET, when,
                             lambda tag: fired.append((tag, sim.now)), "A")
        sim.call_at(when, lambda: fired.append(("between", sim.now)))
        fd.call_if_suspected(sim, 2, TARGET, when,
                             lambda tag: fired.append((tag, sim.now)), "B")
        if crash_at is not None and crash_slot == "high":
            sim.call_at(crash_at, crash)

    sim.call_at(register_at, register)
    sim.run_until_quiescent()
    # The next slot tells whether both runs consumed the same counter.
    return fired, sim.reserve_slot()


GRID = [
    (crash_at, crash_slot, delay, register_at, relay_after)
    for crash_at, delay, register_at, relay_after in itertools.product(
        (None, 5.0, 10.0, 15.0, 20.0, 25.0),  # crash instant
        (0.0, 5.0, 10.0),                     # detection delay
        (5.0, 10.0, 15.0),                    # registration instant
        (0.0, 5.0, 10.0),                     # relay_after
    )
    for crash_slot in (("low", "high") if crash_at is not None
                       and crash_at >= register_at else ("low",))
]


@pytest.mark.parametrize(
    "crash_at,crash_slot,delay,register_at,relay_after", GRID)
def test_same_fires_in_same_order_as_polling(crash_at, crash_slot, delay,
                                             register_at, relay_after):
    args = (crash_at, crash_slot, delay, register_at, relay_after)
    reference = _scenario(PollingPerfectDetector, *args)
    assert _scenario(PerfectDetector, *args) == reference


def test_grid_covers_the_ties():
    """The grid is only a proof if the interesting ties are in it."""
    whens = {(c, s, d, r + a) for c, s, d, r, a in GRID if c is not None}
    assert any(c == w for c, _s, _d, w in whens)           # crash at when
    assert any(c + d == w and d > 0 for c, _s, d, w in whens)
    assert any(c == w and s == "high" for c, s, _d, w in whens)
    assert any(c == w and s == "low" for c, s, _d, w in whens)


class TestTies:
    def test_crash_at_when_from_a_lower_slot_fires_the_check(self):
        fired, _ = _scenario(PerfectDetector, 15.0, "low", 0.0, 10.0, 5.0)
        assert fired == [("crash", 15.0), ("A", 15.0), ("between", 15.0),
                         ("B", 15.0)]

    def test_crash_at_when_from_a_higher_slot_does_not_resurrect_it(self):
        fired, _ = _scenario(PerfectDetector, 15.0, "high", 0.0, 10.0, 5.0)
        assert fired == [("between", 15.0), ("crash", 15.0)]

    def test_detection_delay_decides_at_the_exact_boundary(self):
        # when = 20: suspected from crash + delay = 20 on -> fires.
        fired, _ = _scenario(PerfectDetector, 10.0, "low", 10.0, 10.0, 10.0)
        assert [tag for tag, _ in fired] == ["crash", "A", "between", "B"]
        # when = 15 < 20 -> the poll would have found it unsuspected.
        fired, _ = _scenario(PerfectDetector, 10.0, "low", 10.0, 10.0, 5.0)
        assert [tag for tag, _ in fired] == ["crash", "between"]


class TestEventFree:
    def test_failure_free_checks_queue_nothing(self):
        sim, net, fd = _world(PerfectDetector, 0.0)
        for i in range(100):
            fd.call_if_suspected(sim, 0, TARGET, 20.0, lambda _: None, i)
        assert sim.pending_events == 0
        sim.run_until_quiescent()
        assert sim.events_executed == 0

    def test_expired_checks_are_pruned_as_new_ones_arrive(self):
        sim, net, fd = _world(PerfectDetector, 0.0)

        def register():
            fd.call_if_suspected(sim, 0, TARGET, sim.now + 5.0,
                                 lambda _: None, None)

        for t in range(100):
            sim.call_at(float(t), register)
        sim.run_until_quiescent()
        # Only the checks of the last relay_after window are retained.
        assert len(fd._parked[TARGET]) <= 7

    def test_already_crashed_target_is_decided_at_registration(self):
        sim, net, fd = _world(PerfectDetector, 10.0)
        fired = []
        net.process(TARGET).crash()  # at t=0: suspected from t=10
        fd.call_if_suspected(sim, 0, TARGET, 9.0, fired.append, "early")
        assert sim.pending_events == 0
        fd.call_if_suspected(sim, 0, TARGET, 10.0, fired.append, "due")
        assert sim.pending_events == 1
        sim.run_until_quiescent()
        assert fired == ["due"]


class TestUndeclaredTarget:
    def test_check_on_an_undeclared_target_reserves_and_parks_nothing(self):
        sim, net, fd = _world(PerfectDetector, 0.0, faulty=(2,))
        before = sim.reserve_slot()
        for i in range(10):
            fd.call_if_suspected(sim, 0, TARGET, 20.0, lambda _: None, i)
        assert sim.reserve_slot() == before + 1
        assert fd._parked == {}
        fd.call_if_suspected(sim, 0, 2, 20.0, lambda _: None, None)
        assert sim.reserve_slot() == before + 3
        assert len(fd._parked[2]) == 1

    def test_default_declares_every_process(self):
        sim, net, fd = _world(PerfectDetector, 0.0)
        assert fd.faulty == set(net.topology.processes)

    def test_crash_of_an_undeclared_process_raises(self):
        sim, net, fd = _world(PerfectDetector, 0.0, faulty=())
        with pytest.raises(RuntimeError, match=r"process 1 crashed.*"
                           r"expect_crash\(1\)"):
            net.process(TARGET).crash()

    def test_declaring_after_the_first_event_is_refused(self):
        sim, net, fd = _world(PerfectDetector, 0.0, faulty=())
        fd.expect_crash(0)
        sim.call_at(1.0, lambda: None)
        sim.run_until_quiescent()
        fd.expect_crash(0)  # declared already: nothing to refuse
        with pytest.raises(RuntimeError, match=r"process 1 declared"):
            fd.expect_crash(TARGET)
        assert fd.faulty == {0}


class _RelaySlots:
    """Counts, per target, the relay checks a built system's detector
    is asked for and the kernel slots it reserves while answering, and
    the ``suspects`` polls it answers."""

    def __init__(self, system):
        self.asked = {}
        self.reserved = 0
        self.polled = 0
        self._inside = False
        detector, sim = system.detector, system.sim
        check, reserve = detector.call_if_suspected, sim.reserve_slot
        suspects = detector.suspects

        def counted_suspects(querying, target):
            self.polled += 1
            return suspects(querying, target)

        def counted_check(sim_, querying, target, *rest):
            self.asked[target] = self.asked.get(target, 0) + 1
            self._inside = True
            try:
                return check(sim_, querying, target, *rest)
            finally:
                self._inside = False

        def counted_reserve():
            if self._inside:
                self.reserved += 1
            return reserve()

        detector.call_if_suspected = counted_check
        detector.suspects = counted_suspects
        sim.reserve_slot = counted_reserve


def _built_run(protocol, crashes=None):
    system = build_system(SystemSpec(protocol=protocol,
                                     group_sizes=(3, 3, 3)),
                          seed=3, crashes=crashes)
    slots = _RelaySlots(system)
    multicast = protocol == "a1"
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=2.0, duration=20.0,
        **({"destinations": uniform_k_groups(2)} if multicast else {})))
    system.run_quiescent()
    return system, slots


class TestBuiltSystems:
    """What a built system declares, and what a crash-free run costs."""

    @pytest.mark.parametrize("protocol", ["a1", "a2"])
    def test_crash_free_run_parks_nothing_and_reserves_no_relay_slot(
            self, protocol):
        system, slots = _built_run(protocol)
        assert system.detector.faulty == set()
        # Nobody may crash: rmcast asks the detector nothing, per copy.
        assert slots.asked == {}
        assert slots.polled == 0
        assert system.sim.events_executed > 50
        assert slots.reserved == 0
        assert system.detector._parked == {}
        assert sum(endpoint.rmcast.relays
                   for endpoint in system.endpoints.values()) == 0

    @pytest.mark.parametrize("protocol", ["a1", "a2"])
    def test_scheduled_victim_alone_gets_its_checks(self, protocol):
        """The counter sees reservations: a scheduled victim gets one
        slot per check on it, and every other target none."""
        system, slots = _built_run(protocol, CrashSchedule({4: 12.0}))
        assert system.detector.faulty == {4}
        assert slots.asked[4] > 0
        assert slots.reserved == slots.asked[4]
        assert set(system.detector._parked) <= {4}

    def test_undeclared_hand_crash_raises_and_names_the_pid(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(3, 3)),
                              seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.sim.call_at(0.5, system.network.process(4).crash)
        with pytest.raises(RuntimeError) as info:
            system.run_quiescent()
        assert "process 4 crashed" in str(info.value)
        assert "expect_crash(4)" in str(info.value)

    def test_declared_hand_crash_runs(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(3, 3)),
                              seed=1)
        system.detector.expect_crash(4)
        system.cast(sender=0, dest_groups=(0, 1))
        system.sim.call_at(0.5, system.network.process(4).crash)
        system.run_quiescent()
        assert system.network.process(4).crashed

    def test_phase_crash_target_is_declared_at_install(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(3, 3)),
                              seed=1)
        assert system.detector.faulty == set()
        apply_adversary(system, AdversarySpec(name="pc", injectors=(
            InjectorSpec(kind="phase-crash", params=(("target", 4),)),)))
        assert system.detector.faulty == {4}
        assert system.sim.events_executed == 0
