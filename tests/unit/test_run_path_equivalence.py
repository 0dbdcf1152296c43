"""The run path's two shortcuts decide exactly what the long way did.

* A2 examines the round up for proposal once per round, not once per
  R-Delivered copy (``core/abcast.py``, "When a round is examined").
  The oracle is the endpoint that examines it on every copy: per
  process it must make the same ``(instance, value, now)`` proposals,
  count the same wakeups and deliver the same sequences, for every
  predictor, with and without a bundling window, with one and with two
  rounds in flight.
* :meth:`Simulator.run` reads the queue's heap inline.  The oracle is a
  loop of :meth:`Simulator.step` under the same stop rules: on one mixed
  queue it must execute the same ``(time, seq)`` order and leave the
  same ``now``, ``events_executed`` and ``pending_events``.
"""

import random

import pytest

import repro.core.abcast as abcast
from repro.checkers.properties import check_all
from repro.core.prediction import (
    LingerPredictor,
    PaperPredictor,
    QuiescencePredictor,
    RateAdaptivePredictor,
)
from repro.net.topology import Fixed, LatencyModel, Uniform
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.workload.generators import WorkloadPlan, poisson_workload


# ----------------------------------------------------------------------
# A2: the gated propose path against the per-copy one
# ----------------------------------------------------------------------
class PerCopyA2(abcast.AtomicBroadcastA2):
    """A2 that tells its predictor of, and examines its round on, every
    R-Delivered copy."""

    def _on_rdeliver(self, payload, mid, sender):
        if mid in self._unheard:
            self._unheard.remove(mid)
        else:
            self._heard.add(mid)
            if mid not in self._in_flight:
                self.fresh.add(mid)
        self.predictor.observe_cast(self.process.sim.now)
        self._maybe_propose()


class CountingRate(RateAdaptivePredictor):
    """A predictor that observes, counting what it is told."""

    def __init__(self):
        super().__init__(patience=2.0)
        self.observed = 0

    def observe_cast(self, now):
        self.observed += 1
        super().observe_cast(now)


PREDICTORS = {
    "paper": PaperPredictor,
    "linger": lambda: LingerPredictor(linger_rounds=2),
    "rate": CountingRate,
}

LATENCIES = {
    # The logical model: one unit between groups, ~0 inside.
    "logical": None,
    # Whole-unit links and casts on a grid: instants coincide, so a
    # copy can arrive exactly when a waiting round falls due.
    "fixed": LatencyModel(intra=Fixed(0.5), inter=Fixed(2.0)),
    "uniform": LatencyModel(intra=Uniform(0.01, 0.2),
                            inter=Uniform(0.5, 1.5)),
}


def _plans(system, latency, seed):
    if latency == "fixed":
        rng = random.Random(seed)
        pids = system.topology.processes
        everyone = tuple(system.topology.group_ids)
        rows = [(0.25 * rng.randrange(200), rng.choice(pids), everyone,
                 None) for _ in range(160)]
        return WorkloadPlan(*zip(*rows))
    return poisson_workload(system.topology, system.rng.stream("wl"),
                            rate=6.0, duration=25.0)


def _run(monkeypatch, cls, predictor, delay, latency, seed):
    """One A2 run built with endpoint class ``cls``; returns what each
    process proposed, its wakeups, its deliveries and the predictors."""
    monkeypatch.setattr(abcast, "AtomicBroadcastA2", cls)
    kwargs = {"group_sizes": (2, 3, 2), "protocol": "a2",
              "protocol_kwargs": (("propose_delay", delay),
                                  ("predictor_factory",
                                   PREDICTORS[predictor]))}
    if LATENCIES[latency] is not None:
        kwargs["latency"] = LATENCIES[latency]
    system = build_system(SystemSpec(**kwargs), seed=seed)
    proposals = {}
    for pid, endpoint in system.endpoints.items():
        assert type(endpoint) is cls
        propose = endpoint.consensus.propose

        def recording(instance, value, pid=pid, propose=propose,
                      sim=system.sim):
            proposals.setdefault(pid, []).append((instance, value, sim.now))
            propose(instance, value)

        endpoint.consensus.propose = recording
    system.start_rounds()
    system.cast_plan(_plans(system, latency, seed))
    system.run_quiescent()
    check_all(system.log, system.topology)
    endpoints = system.endpoints.values()
    return {
        "proposals": proposals,
        "wakeups": {e.process.pid: e.wakeups for e in endpoints},
        "sequences": {pid: list(system.log.sequence(pid))
                      for pid in system.endpoints},
        "events": system.sim.events_executed,
    }, system


@pytest.mark.parametrize("in_flight", [2, 1])
@pytest.mark.parametrize("delay", [0.0, 0.3])
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
@pytest.mark.parametrize("latency", sorted(LATENCIES))
def test_gated_propose_is_the_per_copy_propose(monkeypatch, latency,
                                               predictor, delay, in_flight):
    monkeypatch.setattr(abcast, "ROUNDS_IN_FLIGHT", in_flight)
    seed = 11
    gated, _ = _run(monkeypatch, abcast.AtomicBroadcastA2, predictor,
                    delay, latency, seed)
    per_copy, _ = _run(monkeypatch, PerCopyA2, predictor, delay, latency,
                       seed)
    assert gated == per_copy
    assert sum(map(len, gated["proposals"].values())) > 50
    assert sum(map(len, gated["sequences"].values())) > 100


class TestObserveCast:
    def test_an_observing_predictor_hears_every_copy(self, monkeypatch):
        """One ``observe_cast`` per R-Delivered copy: a process
        R-Delivers each cast of its own group once."""
        for cls in (abcast.AtomicBroadcastA2, PerCopyA2):
            _, system = _run(monkeypatch, cls, "rate", 0.0, "logical", 3)
            casts = list(system.log.cast_map.values())
            for pid, endpoint in system.endpoints.items():
                gid = system.topology.group_of(pid)
                own = sum(system.topology.group_of(m.sender) == gid
                          for m in casts)
                assert endpoint.predictor.observed == own > 10

    def test_the_default_predictor_is_never_told(self, monkeypatch):
        told = []
        monkeypatch.setattr(QuiescencePredictor, "observe_cast",
                            lambda self, now: told.append(now))
        _run(monkeypatch, abcast.AtomicBroadcastA2, "paper", 0.0,
             "logical", 3)
        assert told == []
        # The per-copy endpoint tells it of every copy.
        _run(monkeypatch, PerCopyA2, "paper", 0.0, "logical", 3)
        assert len(told) > 100


# ----------------------------------------------------------------------
# Kernel: the inline run loop against a loop of step()
# ----------------------------------------------------------------------
def _step_run(sim, until=None, max_events=None):
    """``Simulator.run`` as a loop of ``step()``: stop when asked, after
    ``max_events``, on an empty queue, or before the first live event
    past ``until`` (the clock then moves to ``until``)."""
    sim._stop_requested = False
    executed = 0
    while not sim._stop_requested:
        if max_events is not None and executed >= max_events:
            break
        next_time = sim._queue.peek_time()
        if next_time is None:
            break
        if until is not None and next_time > until:
            sim.now = until
            break
        sim.step()
        executed += 1
    return sim.now


def _mixed_queue(sim):
    """Queue a bit of everything on ``sim``; returns the execution log
    (``(time, seq, tag)`` per executed event) and the events the test
    pokes at later."""
    log = []
    events = {}

    def record(tag):
        current = sim._queue._current
        log.append((current[0], current[1], tag))

    def at(time, tag, then=None):
        def action():
            record(tag)
            if then is not None:
                then()
        events[tag] = sim.call_at(time, action, tag)
        return events[tag]

    slot = sim.reserve_slot()
    for i in range(6):
        at(1.0, f"tie{i}")  # same instant: seq order
    at(1.5, "dead").cancel()
    at(2.0, "revived").cancel()
    events["revived"].revive()
    # A cancelled head right at the first stop instant, and one past it.
    at(2.5, "head").cancel()
    at(3.2, "late-dead").cancel()
    sim.call_at_each([0.5, 2.0, 3.0, 3.0, 6.0], record,
                     [f"plan{i}" for i in range(5)])
    sim.schedule_action(2.0, lambda: record("bare"))

    def spawn():
        sim.schedule(0.0, lambda: record("now"), "now")
        sim.call_at_reserved(4.0, slot, lambda: record("reserved"))
        events["cancel-me"].cancel()
        sim.schedule_action(1.0, lambda: record("bare-later"))

    at(3.0, "spawn", spawn)
    at(3.5, "cancel-me")
    at(4.0, "tie-with-reserved")
    at(5.0, "stopper", sim.stop)
    at(5.0, "after-stop")
    for i in range(8):
        at(7.0 + 0.25 * i, f"tail{i}")
    at(20.0, "last-dead").cancel()
    return log, events


#: The run() calls each side makes in turn: ``until`` between two
#: events, on an event's instant and with a cancelled head just past
#: it, ``max_events``, a run that stop() ends from inside an action,
#: and the drain.
PHASES = [
    {"until": 1.2}, {"until": 2.5}, {"until": 3.0}, {"max_events": 3},
    {}, {"until": 7.5, "max_events": 1}, {"until": 100.0}, {},
]


def test_inline_run_loop_is_the_step_loop():
    fast, slow = Simulator(), Simulator()
    fast_log, fast_events = _mixed_queue(fast)
    slow_log, slow_events = _mixed_queue(slow)
    for phase in PHASES:
        assert fast.run(**phase) == _step_run(slow, **phase), phase
        assert fast_log == slow_log, phase
        assert (fast.now, fast.events_executed, fast.pending_events) == (
            slow.now, slow.events_executed, slow.pending_events), phase
        # A tombstone the loop popped can no longer be revived, one it
        # left queued can, and a queued live event still counts its own
        # cancel and revive.
        for tag in sorted(fast_events):
            pair = (fast_events[tag], slow_events[tag])
            live = not pair[0].cancelled
            if live:
                for event in pair:
                    event.cancel()
                assert fast.pending_events == slow.pending_events, tag
            revived = [event.revive() for event in pair]
            assert revived[0] == revived[1], (phase, tag)
            assert fast.pending_events == slow.pending_events, tag
            if revived[0] and not live:
                for event in pair:
                    event.cancel()  # a tombstone stays one
    tags = [tag for _, _, tag in fast_log]
    assert "dead" not in tags and "cancel-me" not in tags
    assert tags.index("reserved") < tags.index("tie-with-reserved")
    assert tags.index("after-stop") == tags.index("stopper") + 1
    assert fast.pending_events == 0 and fast.now == 8.75


def test_run_stops_at_until_with_no_live_event_left():
    """A queue holding only tombstones drains without moving the clock
    to ``until``, as peek_time() found it empty."""
    for run in (Simulator.run, _step_run):
        sim = Simulator()
        sim.call_at(3.0, lambda: None).cancel()
        assert run(sim, until=10.0) == 0.0
        assert sim.pending_events == 0 and sim.events_executed == 0
