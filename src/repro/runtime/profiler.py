"""Per-subsystem wall-time attribution for simulated runs.

:class:`PhaseProfiler` is a self-time profiler over a small fixed phase
vocabulary: the kernel run loop pushes ``"kernel"``, the network pushes
``"network"`` around per-copy delivery overhead and classifies each
message handler by its kind (``*.cons.*`` → ``"consensus"``, ``fd.*`` →
``"failure_detection"``, anything else → ``"protocol"``), cast events
push ``"workload"``, and the checker helpers push ``"checkers"``.  Each
phase accumulates *exclusive* time — entering a nested phase suspends
the parent — so the phase timings always sum exactly to the wall time
spanned by the outermost push/pop pair.  That additivity is what the CI
profiler smoke job asserts.

Profiling is opt-in (``build_system(..., profile=True)`` or
``repro.cli profile``): the hot paths only pay a single attribute read
and ``is not None`` test per message when it is off.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: Canonical phase order for rendering (unknown phases sort after).
PHASE_ORDER = (
    "kernel", "network", "transport", "protocol", "consensus",
    "failure_detection", "workload", "checkers",
)


def classify_kind(kind: str) -> str:
    """Map a message kind to its profiling phase.

    Consensus substrates nest their namespace under the protocol's
    (``amc.cons.propose``), so classification matches anywhere in the
    dotted path; the failure detector owns the ``fd`` root and the
    reliable transport's control traffic the ``tsp`` root (its *data*
    frames keep their protocol kinds and classify as usual).
    """
    if kind.startswith("fd."):
        return "failure_detection"
    if kind.startswith("tsp."):
        return "transport"
    if ".cons." in kind or kind.startswith("cons."):
        return "consensus"
    return "protocol"


class PhaseProfiler:
    """A stack-based exclusive-time profiler.

    ``push(phase)`` charges the elapsed time since the last boundary to
    the phase currently on top, then makes ``phase`` the top;
    ``pop()`` charges the top and restores its parent.  Phases may
    repeat and nest arbitrarily.
    """

    def __init__(self) -> None:
        self._timings: Dict[str, float] = {}
        self._stack: List[str] = []
        self._since: float = 0.0

    # ------------------------------------------------------------------
    def push(self, phase: str) -> None:
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1]
            self._timings[top] = (self._timings.get(top, 0.0)
                                  + now - self._since)
        self._stack.append(phase)
        self._since = now

    def pop(self) -> None:
        now = time.perf_counter()
        phase = self._stack.pop()
        self._timings[phase] = (self._timings.get(phase, 0.0)
                                + now - self._since)
        self._since = now

    class _Phase:
        __slots__ = ("_profiler", "_name")

        def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
            self._profiler = profiler
            self._name = name

        def __enter__(self) -> None:
            self._profiler.push(self._name)

        def __exit__(self, *exc) -> None:
            self._profiler.pop()

    def phase(self, name: str) -> "PhaseProfiler._Phase":
        """Context manager: ``with profiler.phase("checkers"): ...``."""
        return PhaseProfiler._Phase(self, name)

    # ------------------------------------------------------------------
    def timings(self) -> Dict[str, float]:
        """Exclusive seconds per phase, canonical order first."""
        def key(item: Tuple[str, float]):
            name = item[0]
            try:
                return (0, PHASE_ORDER.index(name))
            except ValueError:
                return (1, name)

        return dict(sorted(self._timings.items(), key=key))

    def total(self) -> float:
        """Sum of all phase timings (== profiled wall span)."""
        return sum(self._timings.values())

    def fraction(self, phase: str) -> Optional[float]:
        """Phase share of the total, or None before any measurement."""
        total = self.total()
        if total <= 0.0:
            return None
        return self._timings.get(phase, 0.0) / total

    def render(self) -> str:
        """An aligned text table of phase timings and shares."""
        timings = self.timings()
        total = self.total()
        lines = ["Phase timings (exclusive wall time)", ""]
        lines.append(f"{'phase':<18}{'seconds':>10}  {'share':>6}")
        lines.append(f"{'-' * 18}{'-' * 10:>10}  {'-' * 6}")
        for name, seconds in timings.items():
            share = seconds / total if total > 0 else 0.0
            lines.append(f"{name:<18}{seconds:>10.4f}  {share:>5.1%}")
        lines.append(f"{'total':<18}{total:>10.4f}  {'100.0%':>6}")
        return "\n".join(lines)
