"""The schedule-exploration engine: run one case, capture what broke.

A *case* is a (scenario, adversary, seed) triple.  :func:`run_case`
builds the system through the campaign runner's shared construction
path, lets the adversary perturb the schedule, runs to quiescence and
then runs the scenario's checkers — capturing the first violation with
its structured context instead of propagating it, plus everything a
reproducer needs: per-process delivery orders, fault counts, event
totals.

Mids are canonicalised by cast order (``c000000`` is the first cast of
the run) before they appear in a :class:`CaseResult`.  A run mints its
own ids, so raw ids would replay too; the canonical names are kept
because they are the committed artifact format, and because they also
cover ids the run did not mint — a store scenario casts under its
transaction ids — so every cast reads the same way in a violation.
Canonical orders are the replay-comparison currency.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.adversary.spec import AdversarySpec
from repro.campaigns.runner import CHECKERS, build_scenario_system
from repro.campaigns.spec import ScenarioSpec
from repro.checkers.properties import PropertyViolation
from repro.sim.kernel import SimulationError

_MID_PATTERN = re.compile(r"m\d{6,}")


@dataclass
class Violation:
    """One captured checker failure, with machine-readable context."""

    checker: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"checker": self.checker, "message": self.message,
                "context": dict(self.context)}


@dataclass
class CaseResult:
    """Everything observed while running one (scenario, adversary, seed).

    ``delivery_orders`` and all mids inside ``verdicts``/``violation``
    are canonical (renumbered by cast order), so two executions of the
    same case compare equal exactly when they behaved identically.
    """

    scenario: ScenarioSpec
    adversary: AdversarySpec
    seed: int
    verdicts: Dict[str, str]
    violation: Optional[Violation]
    delivery_orders: Dict[int, List[str]]
    casts: int
    deliveries: int
    events: int
    fault_counts: Dict[str, int]
    total_faults: int
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        tag = "ok" if self.ok else f"FAIL[{self.violation.checker}]"
        return (f"{self.scenario.name} × {self.adversary.name} "
                f"seed={self.seed}: {tag} "
                f"({self.casts} casts, {self.total_faults} faults)")


def _canonicalise(text: str, mapping: Dict[str, str]) -> str:
    """Replace raw mids in a message with their canonical names."""
    return _MID_PATTERN.sub(lambda m: mapping.get(m.group(), m.group()),
                            text)


def _canonical_context(context: Dict[str, object],
                       mapping: Dict[str, str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in context.items():
        if isinstance(value, str):
            out[key] = _canonicalise(value, mapping)
        else:
            out[key] = value
    return out


def run_case(scenario: ScenarioSpec, adversary: AdversarySpec,
             seed: int) -> CaseResult:
    """Execute one case and capture (rather than raise) any violation.

    The scenario's declared ``adversary`` name is ignored: the explicit
    ``adversary`` spec is applied instead, which is what lets the
    shrinker run perturbed copies of a failing adversary that exist in
    no registry.  Non-quiescence (the kernel's max_events tripwire) is
    captured as a ``quiescence`` violation — a liveness failure is a
    counterexample too.
    """
    t0 = time.perf_counter()
    system, _casts, applied = build_scenario_system(
        scenario, seed, adversary=adversary)
    violation: Optional[Violation] = None
    try:
        system.run_quiescent(max_events=scenario.max_events)
    except SimulationError as exc:
        violation = Violation(checker="quiescence", message=str(exc))

    # Canonical mid mapping: cast_map is insertion-ordered = cast order.
    mapping = {mid: f"c{i:06d}"
               for i, mid in enumerate(system.log.cast_map)}
    verdicts: Dict[str, str] = {}
    if violation is None:
        for name in scenario.checkers:
            try:
                CHECKERS[name](system)
                verdicts[name] = "ok"
            except PropertyViolation as exc:
                message = _canonicalise(str(exc), mapping)
                verdicts[name] = f"FAIL: {message}"
                if violation is None:
                    violation = Violation(
                        checker=name, message=message,
                        context=_canonical_context(exc.context, mapping),
                    )
            except AssertionError as exc:
                message = _canonicalise(str(exc), mapping)
                verdicts[name] = f"FAIL: {message}"
                if violation is None:
                    violation = Violation(checker=name, message=message)
    else:
        verdicts = {name: "skipped: run did not quiesce"
                    for name in scenario.checkers}

    if violation is not None and applied is not None:
        violation.context.setdefault("faults_injected",
                                     applied.total_faults)
        violation.context.setdefault("virtual_time", system.sim.now)

    # .get: a broken protocol may deliver a mid that was never cast;
    # the raw mid is kept (and the integrity checker reports it).
    orders = {
        pid: [mapping.get(mid, mid) for mid in system.log.sequence(pid)]
        for pid in system.log.processes()
    }
    return CaseResult(
        scenario=scenario,
        adversary=adversary,
        seed=seed,
        verdicts=verdicts,
        violation=violation,
        delivery_orders=orders,
        casts=len(system.log.cast_map),
        deliveries=system.log.delivery_count(),
        events=system.sim.events_executed,
        fault_counts=(applied.fault_counts() if applied else {}),
        total_faults=(applied.total_faults if applied else 0),
        wall_seconds=time.perf_counter() - t0,
    )
