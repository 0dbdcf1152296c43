"""Simulated failure detectors.

Rather than exchanging heartbeats (which would pollute the genuineness
and message-complexity measurements), detectors here are *oracles* driven
by the ground-truth crash state, with configurable accuracy:

* :class:`PerfectDetector` — suspects exactly the crashed processes,
  after a fixed detection delay.  Models the class P.
* :class:`EventuallyPerfectDetector` — before a stabilisation time it may
  wrongly suspect correct processes (each query flips a coin); afterwards
  it behaves like a perfect detector.  Models ◊P, strong enough for ◊S
  use inside consensus.

This oracle design mirrors the paper's measurement methodology: in
Figure 1 the paper charges the algorithms for *protocol* messages only,
assuming an oracle-based consensus/reliable-broadcast substrate ([6],
[11]); detector traffic is out of band.

Protocols that only act *if* a peer turns out to be faulty (reliable
multicast's lazy relay) ask through
:meth:`FailureDetector.call_if_suspected` instead of polling on a timer
of their own: a detector that cannot know the future answers by polling
at the asked instant, while :class:`PerfectDetector` — whose answer is a
function of the failure pattern alone — queues nothing unless the target
does crash, so a failure-free run carries no detector events at all.
It is told which processes may crash (its ``faulty`` set, filled from
the run's crash schedule and by :meth:`FailureDetector.expect_crash`):
a check on any other target is dropped at once, with no kernel slot
reserved and nothing parked, and the crash of a process it was not told
about raises instead of losing the relays it skipped.

:meth:`FailureDetector.can_suspect` asks that set whole: may a target
*ever* be suspected?  The answer is fixed once the run starts (a late
declaration is refused), so a caller may skip every other question
about a target that cannot be suspected — reliable multicast does, per
copy.  Only :class:`PerfectDetector` answers False; every other
detector says True and keeps being polled.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, Optional

from repro.net.network import Network
from repro.sim.kernel import Simulator


class FailureDetector:
    """Interface: per-process suspicion queries."""

    def suspects(self, querying_pid: int, target_pid: int) -> bool:
        """Does ``querying_pid`` currently suspect ``target_pid``?"""
        raise NotImplementedError

    def leader(self, querying_pid: int, candidates) -> Optional[int]:
        """First candidate (ascending pid) not suspected, or None.

        Consensus uses this to pick the ballot-0 proposer and its
        replacements; every correct process eventually agrees on the
        leader once the detector stabilises.
        """
        for pid in sorted(candidates):
            if not self.suspects(querying_pid, pid):
                return pid
        return None

    def call_if_suspected(
        self,
        sim: Simulator,
        querying_pid: int,
        target_pid: int,
        when: float,
        fn: Callable[[Any], None],
        arg: Any,
        label: str = "",
    ) -> None:
        """Run ``fn(arg)`` at ``when`` iff ``querying_pid`` suspects
        ``target_pid`` at that moment.

        The moment is ``when`` at the kernel tie-break slot this call
        takes, i.e. exactly where an event scheduled now would fire.
        This default queues that event (a plain ``call_at``) and polls
        :meth:`suspects` when it fires; ``fn`` itself checks that the
        querier is still alive.
        :class:`PerfectDetector` answers without the event, and without
        the slot for a target that cannot crash.
        """
        def poll() -> None:
            if self.suspects(querying_pid, target_pid):
                fn(arg)

        sim.call_at(when, poll, label)

    def can_suspect(self, target_pid: int) -> bool:
        """May ``target_pid`` ever be suspected in this run?

        False promises that :meth:`suspects` answers False for it at
        every process and instant, and that :meth:`call_if_suspected`
        on it does nothing at all.  The answer is fixed from the first
        event on.  This default cannot promise that, so it says True.
        """
        return True

    def expect_crash(self, pid: int) -> None:
        """Declare, before the run starts, that ``pid`` may crash.

        Whoever crashes a process outside the run's crash schedule (an
        adversary injector, a test) declares it first.  A detector that
        polls every check needs no declaration, so this default does
        nothing; :class:`PerfectDetector` skips checks on undeclared
        targets and refuses their crash.
        """


class PerfectDetector(FailureDetector):
    """Suspects exactly the crashed processes after ``delay``.

    ``faulty`` names the processes that may crash (default: every one).
    A process outside it is never suspected, so a relay check on it is
    dead work: :meth:`call_if_suspected` drops it at once.  A crash of
    such a process raises, naming the pid and the declaration to make
    (:meth:`expect_crash` before the run, or the crash schedule).
    """

    def __init__(self, sim: Simulator, network: Network, delay: float = 0.0,
                 faulty: Optional[Iterable[int]] = None) -> None:
        self.sim = sim
        self.network = network
        self.delay = delay
        #: Pids that may crash; only checks on these are parked.
        self.faulty = set(process.pid for process in network.processes()) \
            if faulty is None else set(faulty)
        self._crash_times: dict = {}
        # target pid -> (when, slot, fn, arg, label) checks parked by
        # call_if_suspected until the target crashes, oldest first.
        self._parked: Dict[int, Deque[tuple]] = {}
        for process in network.processes():
            process.add_crash_hook(
                lambda pid=process.pid: self._on_crash(pid))

    def expect_crash(self, pid: int) -> None:
        if pid in self.faulty:
            return
        if self.sim.events_executed:
            raise RuntimeError(
                f"process {pid} declared faulty after the run started: "
                f"relay checks on it may already have been skipped; call "
                f"detector.expect_crash({pid}) before the first event")
        self.faulty.add(pid)

    def can_suspect(self, target_pid: int) -> bool:
        """Only a process that may crash is ever suspected."""
        return target_pid in self.faulty

    def _on_crash(self, pid: int) -> None:
        if pid not in self.faulty:
            raise RuntimeError(
                f"process {pid} crashed, but the perfect detector was not "
                f"told it may, so relay checks on it were skipped; name it "
                f"in the run's CrashSchedule or call "
                f"detector.expect_crash({pid}) before the run")
        now = self.sim.now
        self._crash_times[pid] = now
        # Parked checks that fall at or after the first suspected
        # instant now fire, each at its own reserved slot; the earlier
        # ones would have found the target unsuspected.
        for when, slot, fn, arg, label in self._parked.pop(pid, ()):
            if when >= now + self.delay:
                self.sim.call_at_reserved(when, slot, partial(fn, arg), label)

    def call_if_suspected(self, sim, querying_pid, target_pid, when, fn,
                          arg, label="") -> None:
        """Event-free unless the target crashes: the answer at ``when``
        is a function of the target's crash instant alone, so the check
        is parked and queued only by the crash that makes it fire.  A
        target outside :attr:`faulty` never crashes: the check returns
        at once, with no slot reserved and nothing parked (the slots
        the others reserve keep their relative order, so the run's
        event order is unchanged)."""
        if target_pid not in self.faulty:
            return
        slot = sim.reserve_slot()
        crashed_at = self._crash_times.get(target_pid)
        if crashed_at is not None:
            if when >= crashed_at + self.delay:
                sim.call_at_reserved(when, slot, partial(fn, arg), label)
            return
        parked = self._parked.get(target_pid)
        if parked is None:
            parked = self._parked[target_pid] = deque()
        now = sim.now
        while parked and parked[0][0] < now:
            parked.popleft()  # its instant passed without a crash
        parked.append((when, slot, fn, arg, label))

    def suspects(self, querying_pid: int, target_pid: int) -> bool:
        crashed_at = self._crash_times.get(target_pid)
        if crashed_at is None:
            return False
        return self.sim.now >= crashed_at + self.delay

    def leader(self, querying_pid: int, candidates) -> Optional[int]:
        # Fast path for the common crash-free run: nobody is suspected,
        # so the leader is simply the smallest candidate pid.
        if not self._crash_times:
            return min(candidates)
        return super().leader(querying_pid, candidates)


class EventuallyPerfectDetector(FailureDetector):
    """Unreliable before ``stabilise_at``; perfect afterwards."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        rng: random.Random,
        stabilise_at: float,
        false_suspicion_probability: float = 0.2,
        delay: float = 0.0,
    ) -> None:
        self._perfect = PerfectDetector(sim, network, delay)
        self.sim = sim
        self.rng = rng
        self.stabilise_at = stabilise_at
        self.false_suspicion_probability = false_suspicion_probability

    def suspects(self, querying_pid: int, target_pid: int) -> bool:
        if self._perfect.suspects(querying_pid, target_pid):
            return True
        if self.sim.now < self.stabilise_at:
            # A crashed querier takes no steps, so it tosses no coin:
            # the shared stream must not depend on polls that outlive
            # the process that asked (see call_if_suspected).
            if self._perfect.network.process(querying_pid).crashed:
                return False
            return self.rng.random() < self.false_suspicion_probability
        return False
