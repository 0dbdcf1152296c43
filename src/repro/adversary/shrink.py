"""Automatic counterexample shrinking.

When the explorer catches a checker violation, the raw failing case is
usually far bigger than the bug needs: hundreds of injected faults, a
full-size topology, a long workload.  :func:`shrink` minimises it with
a greedy fixpoint over four passes, each of which re-runs a candidate
case and keeps it only if it *still fails* (any checker violation
counts — like classic ddmin/QuickCheck shrinking, the minimum may pin
a different symptom of the same schedule-sensitivity, and that is
fine: the artifact records which checker tripped):

1. **fewer injectors** — drop whole injectors one at a time;
2. **fewer faults** — cap each injector's ``max_faults`` at what it
   actually injected, then bisect the cap down;
3. **bisected fault stream** — raise each injector's ``skip_faults``
   by bisection, discarding the prefix of fault opportunities the
   failure does not need (injector random draws are per-opportunity
   and gate-independent, so moving the window never reshuffles the
   stream);
4. **shorter horizon / smaller n** — halve the workload
   (duration/count/bursts), drop crash-schedule entries past the new
   horizon (:meth:`CrashSchedule.late_crashes` is the diagnostic), and
   try removing groups or group members while the crash spec stays
   valid.

Every candidate run is a full deterministic re-execution, so the final
minimum is guaranteed to reproduce: the emitted artifact replays the
shrunk case bit-identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.adversary.explorer import CaseResult, run_case
from repro.adversary.spec import AdversarySpec, InjectorSpec


@dataclass
class ShrinkStep:
    """One accepted shrink: what changed and what it preserved."""

    description: str
    total_faults: int
    casts: int


@dataclass
class ShrinkOutcome:
    """The minimised case plus the path that led there."""

    original: CaseResult
    minimal: CaseResult
    steps: List[ShrinkStep] = field(default_factory=list)
    runs_used: int = 0
    budget_exhausted: bool = False

    def summary(self) -> dict:
        return {
            "runs_used": self.runs_used,
            "budget_exhausted": self.budget_exhausted,
            "original_faults": self.original.total_faults,
            "minimal_faults": self.minimal.total_faults,
            "original_casts": self.original.casts,
            "minimal_casts": self.minimal.casts,
            "steps": [s.description for s in self.steps],
        }


class _Shrinker:
    def __init__(self, case: CaseResult, budget: int) -> None:
        if case.ok:
            raise ValueError("cannot shrink a passing case")
        self.current = case
        self.budget = budget
        self.runs_used = 0
        self.steps: List[ShrinkStep] = []

    # ------------------------------------------------------------------
    def _try(self, scenario, adversary,
             description: str) -> Optional[CaseResult]:
        """Run a candidate; adopt and record it if it still fails."""
        if self.runs_used >= self.budget:
            return None
        self.runs_used += 1
        try:
            result = run_case(scenario, adversary, self.current.seed)
        except Exception:
            # An invalid candidate (e.g. destinations need more groups
            # than remain) simply doesn't reproduce.
            return None
        if result.ok:
            return None
        self.current = result
        self.steps.append(ShrinkStep(
            description=description,
            total_faults=result.total_faults,
            casts=result.casts,
        ))
        return result

    @property
    def exhausted(self) -> bool:
        return self.runs_used >= self.budget

    # ------------------------------------------------------------------
    # Pass 1: drop whole injectors
    # ------------------------------------------------------------------
    def pass_drop_injectors(self) -> bool:
        improved = False
        i = 0
        while i < len(self.current.adversary.injectors):
            adv = self.current.adversary
            reduced = AdversarySpec(
                name=adv.name,
                injectors=adv.injectors[:i] + adv.injectors[i + 1:],
            )
            kind = adv.injectors[i].kind
            # An empty composition is a legal candidate: a case that
            # still fails benignly never needed the adversary at all.
            if self._try(
                    self.current.scenario, reduced,
                    f"dropped injector {i}:{kind}"):
                improved = True
                # The list shifted left; retry the same index.
            else:
                i += 1
            if self.exhausted:
                break
        return improved

    # ------------------------------------------------------------------
    # Pass 2 + 3: bisect each injector's fault window
    # ------------------------------------------------------------------
    def _replace_injector(self, index: int,
                          ispec: InjectorSpec) -> AdversarySpec:
        adv = self.current.adversary
        return AdversarySpec(
            name=adv.name,
            injectors=adv.injectors[:index] + (ispec,)
            + adv.injectors[index + 1:],
        )

    def pass_shrink_fault_windows(self) -> bool:
        improved = False
        for index in range(len(self.current.adversary.injectors)):
            if self.exhausted:
                break
            improved |= self._shrink_max_faults(index)
            improved |= self._raise_skip_faults(index)
        return improved

    def _injected_by(self, index: int) -> int:
        ispec = self.current.adversary.injectors[index]
        return self.current.fault_counts.get(
            f"{index}:{ispec.kind}", 0)

    def _shrink_max_faults(self, index: int) -> bool:
        """Bisect the smallest max_faults that still fails."""
        injected = self._injected_by(index)
        ispec = self.current.adversary.injectors[index]
        if ispec.max_faults is not None:
            injected = min(injected, ispec.max_faults)
        improved = False
        # Known-failing upper bound; 0 faults is presumed passing (if
        # it isn't, the first probe below discovers it for free).
        hi, lo = injected, 0
        while lo < hi and not self.exhausted:
            mid = (lo + hi) // 2
            candidate = self._replace_injector(
                index, ispec.with_window(max_faults=mid))
            if self._try(self.current.scenario, candidate,
                         f"injector {index}:{ispec.kind} "
                         f"max_faults -> {mid}"):
                hi = mid
                improved = True
                ispec = self.current.adversary.injectors[index]
            else:
                lo = mid + 1
        return improved

    def _raise_skip_faults(self, index: int) -> bool:
        """Bisect the largest skip_faults that still fails."""
        ispec = self.current.adversary.injectors[index]
        injected = self._injected_by(index)
        if injected == 0:
            return False
        improved = False
        # skip can grow by at most the number of faults still firing
        # minus the one we must keep; probe the window's start upward.
        lo, hi = ispec.skip_faults, ispec.skip_faults + injected - 1
        while lo < hi and not self.exhausted:
            mid = (lo + hi + 1) // 2
            candidate = self._replace_injector(
                index, ispec.with_window(skip_faults=mid))
            if self._try(self.current.scenario, candidate,
                         f"injector {index}:{ispec.kind} "
                         f"skip_faults -> {mid}"):
                lo = mid
                improved = True
                ispec = self.current.adversary.injectors[index]
            else:
                hi = mid - 1
        return improved

    # ------------------------------------------------------------------
    # Pass 4: shrink the scenario itself
    # ------------------------------------------------------------------
    def _workload_candidates(self, spec):
        wl = spec.workload
        if wl.kind == "poisson" and wl.duration > 2.0:
            yield (dataclasses.replace(wl, duration=wl.duration / 2),
                   f"duration -> {wl.duration / 2:g}")
        if wl.kind == "periodic" and wl.count > 2:
            yield (dataclasses.replace(wl, count=wl.count // 2),
                   f"count -> {wl.count // 2}")
        if wl.kind == "burst" and wl.bursts > 1:
            yield (dataclasses.replace(wl, bursts=wl.bursts // 2),
                   f"bursts -> {wl.bursts // 2}")

    def _horizon_of(self, workload) -> float:
        if workload.kind == "poisson":
            return workload.start + workload.duration
        if workload.kind == "periodic":
            return workload.start + workload.period * workload.count
        return workload.start + workload.gap * workload.bursts

    def pass_shrink_scenario(self) -> bool:
        improved = False
        # Shorter horizon, with the CrashSchedule horizon diagnostic
        # pruning now-dead explicit crashes in the same step.
        for wl, label in list(
                self._workload_candidates(self.current.scenario)):
            if self.exhausted:
                break
            scenario = dataclasses.replace(self.current.scenario,
                                           workload=wl)
            if scenario.crashes.kind == "explicit":
                from repro.failure.schedule import CrashSchedule

                horizon = self._horizon_of(wl)
                schedule = CrashSchedule(dict(scenario.crashes.crashes))
                late = schedule.late_crashes(horizon)
                if late:
                    kept = tuple(pair for pair in scenario.crashes.crashes
                                 if pair[0] not in late)
                    scenario = dataclasses.replace(
                        scenario,
                        crashes=dataclasses.replace(scenario.crashes,
                                                    crashes=kept),
                    )
                    label += f", {len(late)} late crash(es) dropped"
            if self._try(scenario, self.current.adversary,
                         f"workload {label}"):
                improved = True
        # Smaller n: drop the last group, then slim each group by one.
        sizes = self.current.scenario.group_sizes
        if len(sizes) > 2 and not self.exhausted:
            scenario = dataclasses.replace(self.current.scenario,
                                           group_sizes=sizes[:-1])
            if self._try(scenario, self.current.adversary,
                         f"groups -> {sizes[:-1]}"):
                improved = True
        sizes = self.current.scenario.group_sizes
        for gid in range(len(sizes)):
            if self.exhausted:
                break
            if sizes[gid] <= 1:
                continue
            slimmer = sizes[:gid] + (sizes[gid] - 1,) + sizes[gid + 1:]
            scenario = dataclasses.replace(self.current.scenario,
                                           group_sizes=slimmer)
            if self._try(scenario, self.current.adversary,
                         f"group_sizes -> {slimmer}"):
                improved = True
                sizes = self.current.scenario.group_sizes
        return improved

    # ------------------------------------------------------------------
    def run(self) -> bool:
        improved = self.pass_drop_injectors()
        improved |= self.pass_shrink_fault_windows()
        improved |= self.pass_shrink_scenario()
        return improved


def shrink(case: CaseResult, budget: int = 120) -> ShrinkOutcome:
    """Minimise a failing case to a small, still-failing reproducer.

    Runs the shrink passes to a fixpoint (or until ``budget`` candidate
    executions are spent).  The returned outcome's ``minimal`` case is
    always a real executed result — never a speculated one — so writing
    it straight into a replay artifact is sound.
    """
    shrinker = _Shrinker(case, budget)
    while shrinker.run():
        if shrinker.exhausted:
            break
    return ShrinkOutcome(
        original=case,
        minimal=shrinker.current,
        steps=shrinker.steps,
        runs_used=shrinker.runs_used,
        budget_exhausted=shrinker.exhausted,
    )
