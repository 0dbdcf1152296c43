"""Replayable counterexample artifacts.

An artifact is a self-contained JSON record of one explorer case: the
full (lossless) scenario spec, the adversary spec, the seed, and the
*expected* observable outcome — canonical per-process delivery orders,
checker verdicts, cast/fault counts, and the captured violation if the
case failed.  ``repro.cli replay <artifact>`` rebuilds the case from
the specs alone, re-runs it, and compares the fresh outcome against the
expected block field by field; because every random stream derives from
the recorded seed, a healthy checkout reproduces bit-identically.

Artifacts are the currency of the torture pipeline: the shrinker emits
one per minimised counterexample, CI uploads them on failure, and two
hand-minimised ones are committed as golden files under
``tests/adversary/golden/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.adversary.explorer import CaseResult, run_case
from repro.adversary.spec import AdversarySpec
from repro.campaigns.spec import ScenarioSpec

#: Artifact schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.adversary.artifact/v1"


def case_to_artifact(case: CaseResult,
                     shrink_summary: Optional[dict] = None) -> dict:
    """Serialise an executed case into the replayable artifact layout."""
    return {
        "schema": SCHEMA,
        "scenario": case.scenario.to_dict(),
        "adversary": case.adversary.to_dict(),
        "seed": case.seed,
        "violation": (case.violation.to_dict()
                      if case.violation else None),
        "expected": {
            "verdicts": dict(case.verdicts),
            "delivery_orders": {str(pid): list(order)
                                for pid, order in
                                sorted(case.delivery_orders.items())},
            "casts": case.casts,
            "deliveries": case.deliveries,
            "total_faults": case.total_faults,
            "fault_counts": dict(case.fault_counts),
        },
        "shrink": shrink_summary,
    }


def write_artifact(case: CaseResult, path: str,
                   shrink_summary: Optional[dict] = None) -> str:
    """Write the artifact JSON for ``case`` to ``path``."""
    data = case_to_artifact(case, shrink_summary=shrink_summary)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path


def load_artifact(path: str) -> dict:
    """Load and schema-check an artifact file."""
    with open(path) as fh:
        data = json.load(fh)
    found = data.get("schema")
    if found != SCHEMA:
        raise ValueError(
            f"{path}: not an adversary artifact "
            f"(schema {found!r}, expected {SCHEMA!r})"
        )
    for key in ("scenario", "adversary", "seed", "expected"):
        if key not in data:
            raise ValueError(f"{path}: artifact is missing {key!r}")
    return data


@dataclass
class ReplayResult:
    """Outcome of replaying an artifact against the current code."""

    case: CaseResult
    reproduced: bool
    diffs: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.reproduced:
            verdict = ("violation reproduced"
                       if self.case.violation else "checkers green")
            return (f"reproduced bit-identically ({verdict}, "
                    f"{self.case.casts} casts, "
                    f"{self.case.total_faults} faults)")
        return "DIVERGED:\n  " + "\n  ".join(self.diffs)


def replay(data: dict) -> ReplayResult:
    """Re-run an artifact's case and diff it against the expected block.

    The comparison covers exactly the determinism guarantee: checker
    verdicts (canonical-mid text included), per-process delivery
    orders, and the cast/delivery/fault counts.  Wall clocks and event
    totals are deliberately not compared — they may legitimately drift
    as the engine gets faster.
    """
    scenario = ScenarioSpec.from_dict(data["scenario"])
    adversary = AdversarySpec.from_dict(data["adversary"])
    _ensure_protocol(scenario.protocol)
    case = run_case(scenario, adversary, data["seed"])
    expected = data["expected"]
    diffs: List[str] = []

    got_verdicts = dict(case.verdicts)
    if got_verdicts != expected["verdicts"]:
        for name in sorted(set(got_verdicts) | set(expected["verdicts"])):
            want = expected["verdicts"].get(name)
            got = got_verdicts.get(name)
            if want != got:
                diffs.append(f"verdict[{name}]: expected {want!r}, "
                             f"got {got!r}")
    got_orders = {str(pid): order
                  for pid, order in case.delivery_orders.items()}
    want_orders = expected["delivery_orders"]
    if got_orders != want_orders:
        for pid in sorted(set(got_orders) | set(want_orders)):
            if got_orders.get(pid) != want_orders.get(pid):
                diffs.append(f"delivery order of pid {pid} diverged")
    for counter in ("casts", "deliveries", "total_faults"):
        want = expected[counter]
        got = getattr(case, counter)
        if want != got:
            diffs.append(f"{counter}: expected {want}, got {got}")

    want_violation = data.get("violation")
    got_violation = case.violation.to_dict() if case.violation else None
    if (want_violation is None) != (got_violation is None):
        diffs.append(
            f"violation presence: expected "
            f"{'one' if want_violation else 'none'}, "
            f"got {'one' if got_violation else 'none'}"
        )
    elif want_violation and got_violation["checker"] != \
            want_violation["checker"]:
        diffs.append(
            f"violating checker: expected "
            f"{want_violation['checker']!r}, "
            f"got {got_violation['checker']!r}"
        )

    return ReplayResult(case=case, reproduced=not diffs, diffs=diffs)


def replay_file(path: str) -> ReplayResult:
    """Load an artifact file and replay it."""
    return replay(load_artifact(path))


def _ensure_protocol(name: str) -> None:
    """Register the self-test canary protocol when an artifact needs it.

    Golden artifacts for the intentionally-broken fixture name a
    protocol that is deliberately absent from the default registry;
    replay is the one place it gets auto-registered.
    """
    from repro.runtime.builder import PROTOCOLS

    if name not in PROTOCOLS:
        from repro.adversary import selftest

        if name == selftest.PROTOCOL_NAME:
            selftest.register_selftest_protocol()
