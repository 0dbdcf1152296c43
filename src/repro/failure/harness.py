"""Determinism harness: message-driven vs elided heartbeat modes.

The elided heartbeat mode (:mod:`repro.failure.heartbeat`) claims to be
a pure optimisation: zero traffic and zero kernel events, yet the same
observable failure-detector behaviour as real heartbeat messages.  This
module turns that claim into a checked invariant.  Given a scenario
factory, it runs the scenario once per mode, records

* every **suspicion transition** — the (time, observer, peer, suspected)
  stream sampled by a probe over all same-group ordered pairs,
* the per-process **delivery orders** of the protocol under test, and
* the **checker verdict** of the paper's property suite,

and asserts all three are bit-identical between the modes.  The probe
fires at times offset from the heartbeat grid (``probe_offset``) so no
probe ever ties with a heartbeat arrival — transition instants are
compared at probe resolution, which is exactly what protocols observe
(they query the detector, they do not watch its internals).

The unit tests run this harness across a grid of crash scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.net.topology import Topology
from repro.sim.kernel import Simulator

#: One suspicion change: (virtual time, observer pid, peer pid, suspected).
Transition = Tuple[float, int, int, bool]


class SuspicionRecorder:
    """Probe a failure detector and record suspicion transitions.

    Samples every same-group ordered pair (cross-group pairs are never
    suspected by a group-scoped heartbeat detector, in either mode) at
    ``offset, offset + period, ...`` up to ``until``.  The initial state
    is all-False, matching a freshly constructed detector.
    """

    def __init__(
        self,
        sim: Simulator,
        detector,
        topology: Topology,
        until: float,
        period: float = 1.0,
        offset: float = 0.25,
    ) -> None:
        if period <= 0:
            raise ValueError("probe period must be positive")
        self.sim = sim
        self.detector = detector
        self.until = until
        self.period = period
        self.transitions: List[Transition] = []
        self._state: Dict[Tuple[int, int], bool] = {}
        self._pairs = [
            (p, q)
            for gid in topology.group_ids
            for p in topology.members(gid)
            for q in topology.members(gid)
            if p != q
        ]
        if sim.now + offset <= until:
            sim.schedule(offset, self._probe, label="harness.probe")

    def _probe(self) -> None:
        now = self.sim.now
        suspects = self.detector.suspects
        state = self._state
        for pair in self._pairs:
            suspected = suspects(pair[0], pair[1])
            if suspected != state.get(pair, False):
                state[pair] = suspected
                self.transitions.append((now, pair[0], pair[1], suspected))
        if now + self.period <= self.until:
            self.sim.schedule(self.period, self._probe,
                              label="harness.probe")


@dataclass
class ModeTrace:
    """Everything the harness compares between detector modes."""

    mode: str
    suspicion_transitions: List[Transition] = field(default_factory=list)
    delivery_orders: Dict[int, List[str]] = field(default_factory=dict)
    checker_verdict: str = "ok"
    kernel_events: int = 0
    fd_messages: int = 0


def run_mode(
    make_system: Callable[[str], object],
    mode: str,
    run_until: float,
    probe_period: float = 1.0,
    probe_offset: float = 0.25,
) -> ModeTrace:
    """Build the scenario in ``mode``, run it, capture the trace.

    ``make_system(mode)`` must return a fully scheduled
    :class:`~repro.runtime.builder.System` (workload already cast) whose
    detector is a heartbeat detector in the given mode.
    """
    from repro.checkers.properties import check_all

    system = make_system(mode)
    recorder = SuspicionRecorder(
        system.sim, system.detector, system.topology,
        until=run_until, period=probe_period, offset=probe_offset,
    )
    system.run(until=run_until)
    try:
        check_all(system.log, system.topology, system.crashes)
        verdict = "ok"
    except AssertionError as exc:
        verdict = f"FAIL: {exc}"
    return ModeTrace(
        mode=mode,
        suspicion_transitions=recorder.transitions,
        delivery_orders={pid: system.log.sequence(pid)
                         for pid in system.log.processes()},
        checker_verdict=verdict,
        kernel_events=system.sim.events_executed,
        fd_messages=system.network.stats.by_kind.get("fd.hb", 0),
    )


def compare_modes(
    make_system: Callable[[str], object],
    run_until: float,
    probe_period: float = 1.0,
    probe_offset: float = 0.25,
) -> Dict[str, ModeTrace]:
    """Run both modes and assert their observable behaviour is identical.

    Raises :class:`AssertionError` naming the first divergence; returns
    the two traces (keyed by mode) on success so callers can additionally
    inspect the event/message savings.
    """
    traces = {
        mode: run_mode(make_system, mode, run_until,
                       probe_period=probe_period, probe_offset=probe_offset)
        for mode in ("messages", "elided")
    }
    a, b = traces["messages"], traces["elided"]
    if a.suspicion_transitions != b.suspicion_transitions:
        for x, y in zip(a.suspicion_transitions, b.suspicion_transitions):
            if x != y:
                raise AssertionError(
                    f"suspicion transitions diverged: messages={x} "
                    f"vs elided={y}"
                )
        # One list is a proper prefix of the other: report the first
        # transition only the longer run observed.
        shorter = min(len(a.suspicion_transitions),
                      len(b.suspicion_transitions))
        longer = max(a.suspicion_transitions, b.suspicion_transitions,
                     key=len)
        raise AssertionError(
            f"suspicion transition counts diverged: "
            f"messages has {len(a.suspicion_transitions)}, "
            f"elided has {len(b.suspicion_transitions)}; first extra: "
            f"{longer[shorter]}"
        )
    if a.delivery_orders != b.delivery_orders:
        pids = sorted(set(a.delivery_orders) | set(b.delivery_orders))
        for pid in pids:
            if a.delivery_orders.get(pid) != b.delivery_orders.get(pid):
                raise AssertionError(
                    f"delivery order diverged at process {pid}: "
                    f"messages={a.delivery_orders.get(pid)} vs "
                    f"elided={b.delivery_orders.get(pid)}"
                )
    if a.checker_verdict != b.checker_verdict:
        raise AssertionError(
            f"checker verdicts diverged: messages={a.checker_verdict!r} "
            f"vs elided={b.checker_verdict!r}"
        )
    if b.fd_messages != 0:
        raise AssertionError(
            f"elided mode sent {b.fd_messages} heartbeat copies"
        )
    return traces
