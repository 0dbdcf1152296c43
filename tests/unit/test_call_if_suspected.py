"""``PerfectDetector.call_if_suspected`` against the polling reference.

The base-class implementation queues one kernel event per check and
asks ``suspects`` when it fires — what reliable multicast's relay check
did on its own timer before.  The oracle override queues nothing until
the target crashes.  Both must fire the same checks in the same order,
ties included, and consume the same tie-break slots.
"""

import itertools
import random

import pytest

from repro.failure.detectors import FailureDetector, PerfectDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.kernel import Simulator
from repro.sim.process import Process


class PollingPerfectDetector(PerfectDetector):
    """Same oracle, but every check polls: the reference behaviour."""

    call_if_suspected = FailureDetector.call_if_suspected


TARGET = 1


def _world(detector_cls, delay):
    sim = Simulator()
    topo = Topology([3])
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(10.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, 0, sim))
    return sim, net, detector_cls(sim, net, delay=delay)


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
