"""Crash-stop failure injection.

A :class:`CrashSchedule` maps process ids to virtual crash times.  When
applied to a simulator it schedules the crashes; the network then stops
accepting sends from and deliveries to the crashed process.

The paper's model requires at least one correct process per group; our
Paxos-based consensus additionally needs a majority of correct processes
per group for liveness.  :meth:`CrashSchedule.validate` checks both so
experiments fail fast on nonsensical schedules.
"""

from __future__ import annotations

import random
import warnings
from typing import Dict, Optional

from repro.net.topology import Topology
from repro.sim.kernel import Simulator


class CrashHorizonWarning(UserWarning):
    """A schedule names crash times past the run horizon.

    Such crashes still *execute* (the kernel keeps the crash event
    queued, extending a run-until-quiescent well past the workload
    tail), but they usually no longer influence anything the checkers
    look at — the classic symptom of an unshrunk counterexample.  The
    adversary shrinker uses :meth:`CrashSchedule.late_crashes` to find
    and drop them.
    """


class CrashSchedule:
    """An immutable plan of who crashes when."""

    def __init__(self, crashes: Optional[Dict[int, float]] = None) -> None:
        self.crashes: Dict[int, float] = dict(crashes or {})

    def __len__(self) -> int:
        return len(self.crashes)

    def crash_time(self, pid: int) -> Optional[float]:
        """Virtual crash time of ``pid``, or None if correct."""
        return self.crashes.get(pid)

    def is_faulty(self, pid: int) -> bool:
        """True when ``pid`` crashes at some point in this schedule."""
        return pid in self.crashes

    def correct_processes(self, topology: Topology) -> list:
        """Process ids that never crash."""
        return [p for p in topology.processes if p not in self.crashes]

    def late_crashes(self, horizon: float) -> Dict[int, float]:
        """Crashes scheduled strictly after ``horizon`` (pid -> time).

        The diagnostic behind :class:`CrashHorizonWarning`; the
        adversary shrinker drops these first when it shortens a failing
        scenario's horizon.
        """
        return {pid: t for pid, t in self.crashes.items() if t > horizon}

    def truncated(self, horizon: float) -> "CrashSchedule":
        """A copy of this schedule without the crashes past ``horizon``."""
        return CrashSchedule(
            {pid: t for pid, t in self.crashes.items() if t <= horizon}
        )

    def record_observed(self, pid: int, when: float) -> None:
        """Record a crash injected dynamically during the run.

        Phase-triggered injectors crash processes the static plan never
        named; registering the crash here keeps the post-run checkers'
        notion of "correct process" aligned with what actually happened.
        """
        self.crashes.setdefault(pid, when)

    # ------------------------------------------------------------------
    def validate(self, topology: Topology, require_majority: bool = True,
                 horizon: Optional[float] = None) -> None:
        """Check the schedule against the paper's assumptions.

        Raises ValueError when the schedule names a process outside the
        topology, when a group loses all members, or (when
        ``require_majority``) when a group loses its majority — Paxos
        inside that group would lose liveness.  When ``horizon`` is
        given, crashes scheduled past it additionally emit a
        :class:`CrashHorizonWarning` — legal, but almost always a sign
        the schedule carries dead weight.
        """
        if horizon is not None:
            late = self.late_crashes(horizon)
            if late:
                named = ", ".join(f"pid {pid} at {t:g}"
                                  for pid, t in sorted(late.items()))
                warnings.warn(
                    f"crash(es) scheduled past the run horizon "
                    f"{horizon:g}: {named}; they extend the run without "
                    f"affecting it — consider truncated({horizon:g})",
                    CrashHorizonWarning,
                    stacklevel=2,
                )
        known = set(topology.processes)
        strangers = sorted(pid for pid in self.crashes if pid not in known)
        if strangers:
            raise ValueError(
                f"crash schedule names unknown process(es) {strangers}; "
                f"topology has {topology.n_processes} processes"
            )
        for gid in topology.group_ids:
            members = topology.members(gid)
            faulty = [p for p in members if p in self.crashes]
            correct = len(members) - len(faulty)
            if correct < 1:
                raise ValueError(f"group {gid} has no correct process")
            if require_majority and correct * 2 <= len(members):
                raise ValueError(
                    f"group {gid} loses its majority "
                    f"({correct}/{len(members)} correct)"
                )

    def apply(self, sim: Simulator, network) -> None:
        """Schedule every crash on the simulator."""
        for pid, when in sorted(self.crashes.items()):
            process = network.process(pid)
            sim.call_at(when, process.crash, label=f"crash:{pid}")

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "CrashSchedule":
        """The failure-free schedule."""
        return cls({})

    @classmethod
    def random_minority(
        cls,
        topology: Topology,
        rng: random.Random,
        window: float = 100.0,
        crash_probability: float = 0.5,
    ) -> "CrashSchedule":
        """Crash a random strict minority of each group within ``window``.

        Useful for property-based tests: the schedule always satisfies
        :meth:`validate`, so liveness is preserved while exercising the
        failure paths.
        """
        crashes: Dict[int, float] = {}
        for gid in topology.group_ids:
            members = topology.members(gid)
            max_faulty = (len(members) - 1) // 2
            candidates = [p for p in members if rng.random() < crash_probability]
            rng.shuffle(candidates)
            for pid in candidates[:max_faulty]:
                crashes[pid] = rng.uniform(0.0, window)
        return cls(crashes)
