"""Campaign execution: fan scenario × seed tasks over worker processes.

A campaign is a named list of :class:`ScenarioSpec`.  The runner expands
it into (scenario, seed) tasks and executes each task with
:func:`run_scenario_seed` — build the system from the spec, schedule the
declarative workload, run to quiescence, extract metrics, run checkers.
Because a task touches nothing outside its own freshly built simulation
and derives every random stream from its seed, the same task produces
bit-identical metrics whether it runs in this process or in a pool
worker; ``--jobs N`` is purely a wall-clock multiplier.

Parallelism uses a plain :mod:`multiprocessing` pool with small chunks
(load balancing matters because scenario durations vary; chunks only
grow once the task list dwarfs the worker count, to amortise IPC) and
falls back to the serial path when pools cannot be created (e.g.
restricted sandboxes).  Results are keyed by (scenario, seed), never by
completion order, so artefacts are byte-stable across jobs counts.

Artefacts: ``CAMPAIGN_<name>.json`` (per-seed metrics, checker verdicts,
cross-seed aggregates via :class:`~repro.runtime.runner.Aggregate`, wall
clocks) and a Figure-1-style markdown summary table.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaigns.metrics import extract
from repro.campaigns.spec import ScenarioSpec
from repro.checkers.genuineness import check_genuineness
from repro.checkers.properties import check_all
from repro.runtime.builder import build_system
from repro.runtime.runner import Aggregate
from repro.sim.rng import RngRegistry
from repro.workload.generators import schedule_workload


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------
def _check_properties(system) -> None:
    check_all(system.log, system.topology, system.crashes)


def _check_genuineness(system) -> None:
    check_genuineness(system.network.trace, system.log, system.topology)


def _store_cluster(system):
    cluster = getattr(system, "store_cluster", None)
    if cluster is None:
        raise ValueError(
            "store checkers require a store scenario (ScenarioSpec.store)"
        )
    return cluster


def _check_serializability(system) -> None:
    from repro.store.checker import serializability_replay

    # Only a pass that ends green leaves its replay for "reconfig".
    system.checked_replay = None
    replay = serializability_replay(_store_cluster(system))
    system.checked_replay = (system.sim.events_executed, replay)


def _check_convergence(system) -> None:
    _store_cluster(system).assert_convergence()


def _check_stabilization(system) -> None:
    from repro.checkers.stabilization import check_stabilization

    check_stabilization(system)


def _check_reconfig(system) -> None:
    from repro.reconfig.checker import check_reconfig

    # A green "serializability" with no kernel event since has already
    # replayed this very run: hand its replay on instead of redoing it.
    checked = getattr(system, "checked_replay", None)
    replay = None
    if checked is not None and checked[0] == system.sim.events_executed:
        replay = checked[1]
    check_reconfig(_store_cluster(system), replay)


CHECKERS: Dict[str, Callable[[object], None]] = {
    "properties": _check_properties,
    "genuineness": _check_genuineness,
    "serializability": _check_serializability,
    "convergence": _check_convergence,
    "stabilization": _check_stabilization,
    "reconfig": _check_reconfig,
}

#: Checkers that need the full message trace recorded during the run.
TRACE_CHECKERS = frozenset({"genuineness"})

#: Checkers that only make sense with a mounted store cluster.
STORE_CHECKERS = frozenset({"serializability", "convergence", "reconfig"})

#: Metric families that need the trace (involvement accounting) — the
#: same auto-enable rule TRACE_CHECKERS applies to checkers.
TRACE_METRICS = frozenset({"involvement"})

#: Metric families that read ``system.store_cluster``.
STORE_METRICS = frozenset({"store", "involvement", "reconfig"})


def run_checkers(system, spec: ScenarioSpec) -> Dict[str, str]:
    """Run the spec's checkers; map each to "ok" or "FAIL: <why>"."""
    verdicts: Dict[str, str] = {}
    for name in spec.checkers:
        try:
            CHECKERS[name](system)
            verdicts[name] = "ok"
        except AssertionError as exc:
            verdicts[name] = f"FAIL: {exc}"
    return verdicts


# ----------------------------------------------------------------------
# One task
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Outcome of one (scenario, seed) task."""

    scenario: str
    seed: int
    metrics: Dict[str, float]
    checkers: Dict[str, str]  # checker name -> "ok" or failure text
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.checkers.values())


def validate_spec(spec: ScenarioSpec) -> None:
    """Fail fast on misconfigured scenarios, before any run starts."""
    from repro.campaigns.metrics import EXTRACTORS

    try:
        spec.validate()
    except ValueError as exc:
        raise ValueError(f"scenario {spec.name!r}: {exc}") from None
    unknown = [c for c in spec.checkers if c not in CHECKERS]
    if unknown:
        raise ValueError(
            f"unknown checker(s) {unknown}; have {sorted(CHECKERS)}"
        )
    # Metric names are validated before the (potentially long) run too:
    # a typo must not cost a finished simulation.
    unknown = [m for m in spec.metrics if m not in EXTRACTORS]
    if unknown:
        raise ValueError(
            f"unknown metric extractor(s) {unknown}; "
            f"have {sorted(EXTRACTORS)}"
        )
    if spec.adversary != "none":
        from repro.adversary.spec import ADVERSARIES

        if spec.adversary not in ADVERSARIES:
            raise ValueError(
                f"scenario {spec.name!r}: unknown adversary "
                f"{spec.adversary!r}; have {sorted(ADVERSARIES)}"
            )
    if spec.store is None:
        store_only = (STORE_CHECKERS.intersection(spec.checkers)
                      | STORE_METRICS.intersection(spec.metrics))
        if store_only:
            raise ValueError(
                f"scenario {spec.name!r}: {sorted(store_only)} require a "
                f"store scenario — set ScenarioSpec.store to a StoreSpec"
            )
    elif spec.store.data_groups is not None:
        # Explicit partition assignments must name groups that exist in
        # *this* topology; catching the mismatch at spec time turns a
        # mid-campaign KeyError (per scenario, per seed, per worker)
        # into one immediate error naming the scenario.
        n_groups = len(spec.group_sizes)
        bad = sorted(g for g in spec.store.data_groups
                     if not 0 <= g < n_groups)
        if bad:
            raise ValueError(
                f"scenario {spec.name!r}: store data_groups {bad} outside "
                f"the topology's groups 0..{n_groups - 1}"
            )
    if spec.detector == "heartbeat" and spec.heartbeat_horizon is None:
        # Message-driven heartbeats reschedule forever; without a
        # horizon the run_quiescent below would grind max_events and
        # die, per (scenario, seed), in every worker.  Fail fast.
        raise ValueError(
            f"scenario {spec.name!r}: detector='heartbeat' needs a "
            f"finite heartbeat_horizon (message-driven beats never "
            f"stop, so the run cannot quiesce); set heartbeat_horizon "
            f"past the workload tail"
        )


def build_scenario_system(spec: ScenarioSpec, seed: int,
                          adversary=None):
    """Build the system for one (scenario, seed), workload scheduled.

    The one construction path shared by the campaign runner and the
    adversary explorer: crash resolution, build_system, adversary
    application (the named ``spec.adversary`` axis, or an explicit
    :class:`~repro.adversary.spec.AdversarySpec` overriding it) and
    workload scheduling all happen here, so a campaign run and an
    explorer/shrinker/replay run of the same (spec, adversary, seed)
    triple are bit-identical by construction.

    Returns ``(system, casts, applied)``: ``casts`` is the list of
    scheduled :class:`~repro.core.interfaces.AppMessage` (for a store
    scenario, the cluster's transaction plans), one per planned cast;
    ``applied`` is the
    :class:`~repro.adversary.injectors.AppliedAdversary` (None when
    benign).  The cast plan itself is not kept: once queued, only its
    times column lives on (the queue reads it), and the messages are
    the run's anyway.
    """
    validate_spec(spec)
    crash_rng = RngRegistry(seed).stream("campaign-crashes")
    # The topology is rebuilt by build_system; constructing it here too
    # keeps CrashSpec resolution independent of builder internals.
    from repro.net.topology import Topology

    crashes = spec.crashes.build(Topology(list(spec.group_sizes)), crash_rng)
    system = build_system(
        spec, seed=seed, crashes=crashes,
        trace=bool(TRACE_CHECKERS.intersection(spec.checkers)
                   or TRACE_METRICS.intersection(spec.metrics)),
    )
    applied = None
    if adversary is None and spec.adversary != "none":
        from repro.adversary.spec import get_adversary

        adversary = get_adversary(spec.adversary)
    if adversary is not None and adversary.injectors:
        from repro.adversary.injectors import apply_adversary

        applied = apply_adversary(system, adversary)
    # Post-run checkers read the live injectors (fault horizons) and
    # the streaming settling observer off the system itself, so replay
    # and campaign paths agree on what "stabilized" means.
    system.applied_adversary = applied
    if "stabilization" in spec.checkers:
        from repro.checkers.stabilization import (
            StreamingStabilizationChecker,
        )

        system.stabilization_checker = (
            StreamingStabilizationChecker().attach(system))
    if spec.start_rounds:
        system.start_rounds()
    if spec.store is not None:
        # Store scenarios: mount the serving layer; clients issue the
        # transactions, so the plain ``workload`` field is not used.
        from repro.store.cluster import StoreCluster

        cluster = StoreCluster.attach(system, spec.store)
        return system, cluster.plans, applied
    casts = schedule_workload(
        system, spec.workload.plans(system.topology, system.rng.stream("wl")))
    return system, casts, applied


def run_scenario_seed(spec: ScenarioSpec, seed: int) -> RunResult:
    """Build, run, measure and check one scenario under one seed.

    Everything random — network jitter, workload arrivals, crash draws,
    adversarial fault streams — derives from ``seed`` via the same
    named-stream registry the rest of the repository uses, so repeated
    invocations (in any process) agree exactly.
    """
    t0 = time.perf_counter()
    system, casts, applied = build_scenario_system(spec, seed)
    system.run_quiescent(max_events=spec.max_events)

    metrics = extract(system, list(spec.metrics))
    metrics["planned_casts"] = float(len(casts))
    if applied is not None:
        metrics["faults_injected"] = float(applied.total_faults)
    verdicts = run_checkers(system, spec)
    return RunResult(
        scenario=spec.name, seed=seed, metrics=metrics, checkers=verdicts,
        wall_seconds=time.perf_counter() - t0,
    )


def _run_task(task: Tuple[ScenarioSpec, int]) -> RunResult:
    """Module-level pool target (must be picklable by name)."""
    spec, seed = task
    return run_scenario_seed(spec, seed)


# ----------------------------------------------------------------------
# Campaign + results
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """A named scenario matrix, ready to execute."""

    name: str
    scenarios: List[ScenarioSpec]
    description: str = ""
    #: Optional cross-scenario view of a finished run: returns a
    #: printable table and its rows (persisted under ``"comparison"``).
    compare: Optional[
        Callable[["CampaignResult"], Tuple[str, List[dict]]]] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        names = [s.name for s in self.scenarios]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate scenario names: {sorted(dupes)}")

    @property
    def task_count(self) -> int:
        return sum(len(s.seeds) for s in self.scenarios)


class CampaignResult:
    """All task outcomes of one campaign execution."""

    def __init__(self, campaign: Campaign, jobs: int,
                 results: List[RunResult], wall_seconds: float,
                 jobs_requested: Optional[int] = None) -> None:
        self.campaign = campaign
        #: Worker processes actually used (1 when the pool fell back).
        self.jobs = jobs
        #: What the caller asked for; differs from ``jobs`` only when
        #: pool creation failed and the run degraded to serial.
        self.jobs_requested = jobs_requested or jobs
        self.wall_seconds = wall_seconds
        self._by_key: Dict[Tuple[str, int], RunResult] = {
            (r.scenario, r.seed): r for r in results
        }

    # ------------------------------------------------------------------
    def result(self, scenario: str, seed: int) -> RunResult:
        return self._by_key[(scenario, seed)]

    def results_of(self, scenario: str) -> List[RunResult]:
        spec = self._spec(scenario)
        return [self._by_key[(scenario, seed)] for seed in spec.seeds]

    def _spec(self, scenario: str) -> ScenarioSpec:
        for spec in self.campaign.scenarios:
            if spec.name == scenario:
                return spec
        raise KeyError(f"unknown scenario {scenario!r}")

    def per_seed_metrics(self) -> Dict[str, Dict[int, Dict[str, float]]]:
        """scenario -> seed -> metrics; the determinism-comparison key.

        Metrics are simulated quantities only, so they are identical
        between serial and parallel executions of the same campaign;
        wall clocks live on :attr:`RunResult.wall_seconds`, outside it.
        """
        return {
            spec.name: {
                seed: self._by_key[(spec.name, seed)].metrics
                for seed in spec.seeds
            }
            for spec in self.campaign.scenarios
        }

    def aggregates(self, scenario: str) -> Dict[str, Aggregate]:
        """Cross-seed aggregates of every metric of one scenario."""
        runs = self.results_of(scenario)
        names = sorted({k for r in runs for k in r.metrics})
        return {
            name: Aggregate(name=name,
                            values=[r.metrics[name] for r in runs
                                    if name in r.metrics])
            for name in names
        }

    @property
    def all_checkers_ok(self) -> bool:
        return all(r.ok for r in self._by_key.values())

    def failures(self) -> List[Tuple[str, int, str, str]]:
        """Every (scenario, seed, checker, message) that failed."""
        out = []
        for (scenario, seed), run in sorted(self._by_key.items()):
            for checker, verdict in run.checkers.items():
                if verdict != "ok":
                    out.append((scenario, seed, checker, verdict))
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        scenarios = {}
        for spec in self.campaign.scenarios:
            aggs = self.aggregates(spec.name)
            scenarios[spec.name] = {
                "spec": spec.describe(),
                "seeds": {
                    str(seed): {
                        "metrics": self._by_key[(spec.name, seed)].metrics,
                        "checkers": self._by_key[(spec.name, seed)].checkers,
                        "wall_seconds": round(
                            self._by_key[(spec.name, seed)].wall_seconds, 4),
                    }
                    for seed in spec.seeds
                },
                "aggregates": {
                    name: {"mean": agg.mean, "min": agg.minimum,
                           "max": agg.maximum, "stdev": agg.stdev,
                           "n": agg.n}
                    for name, agg in aggs.items()
                },
            }
        return {
            "campaign": self.campaign.name,
            "description": self.campaign.description,
            "jobs": self.jobs,
            "jobs_requested": self.jobs_requested,
            "cpu_count": os.cpu_count(),
            "scenario_count": len(self.campaign.scenarios),
            "task_count": self.campaign.task_count,
            "wall_seconds": round(self.wall_seconds, 4),
            "all_checkers_ok": self.all_checkers_ok,
            "scenarios": scenarios,
        }

    def write(self, out_dir: str = ".", extra: Optional[dict] = None) -> str:
        """Write ``CAMPAIGN_<name>.json`` (+ markdown) into ``out_dir``."""
        data = self.to_json()
        if extra:
            data.update(extra)
        os.makedirs(out_dir, exist_ok=True)
        safe = self.campaign.name.replace("/", "_").replace(" ", "_")
        path = os.path.join(out_dir, f"CAMPAIGN_{safe}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=False)
            fh.write("\n")
        md_path = os.path.join(out_dir, f"CAMPAIGN_{safe}.md")
        with open(md_path, "w") as fh:
            fh.write(self.markdown_summary() + "\n")
        return path

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    _SUMMARY_COLUMNS = (
        ("casts", "casts"),
        ("deliveries", "delivs"),
        ("degree_mean", "deg"),
        ("latency_worst_mean", "lat"),
        ("inter_per_cast", "inter/cast"),
    )

    def markdown_summary(self) -> str:
        """A GitHub-markdown table: one row per scenario."""
        headers = (["scenario", "seeds", "checkers"]
                   + [short for _, short in self._SUMMARY_COLUMNS])
        lines = [
            f"## Campaign `{self.campaign.name}` "
            f"({len(self.campaign.scenarios)} scenarios, "
            f"{self.campaign.task_count} runs, jobs={self.jobs}, "
            f"{self.wall_seconds:.1f}s wall)",
            "",
            "| " + " | ".join(headers) + " |",
            "|" + "|".join("---" for _ in headers) + "|",
        ]
        for spec in self.campaign.scenarios:
            runs = self.results_of(spec.name)
            checks = "ok" if all(r.ok for r in runs) else "FAIL"
            aggs = self.aggregates(spec.name)
            cells = [spec.name, str(len(spec.seeds)), checks]
            for metric, _ in self._SUMMARY_COLUMNS:
                agg = aggs.get(metric)
                cells.append(f"{agg.mean:.2f}" if agg and agg.n else "—")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Execute a campaign serially or over a process pool.

    ``jobs=1`` (or an unavailable pool) runs every task in-process; the
    two paths call the identical task function, which is what makes the
    serial-vs-parallel determinism guarantee checkable rather than
    aspirational (see :func:`verify_determinism`).
    """

    def __init__(self, campaign: Campaign, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.campaign = campaign
        self.jobs = jobs

    def tasks(self) -> List[Tuple[ScenarioSpec, int]]:
        for spec in self.campaign.scenarios:
            if len(set(spec.seeds)) != len(spec.seeds):
                raise ValueError(
                    f"scenario {spec.name!r} repeats seeds {spec.seeds}: "
                    f"results are keyed by (scenario, seed), so duplicate "
                    f"seeds would silently collapse"
                )
        return [(spec, seed)
                for spec in self.campaign.scenarios
                for seed in spec.seeds]

    def run(self) -> CampaignResult:
        tasks = self.tasks()
        t0 = time.perf_counter()
        results: Optional[List[RunResult]] = None
        if self.jobs > 1 and len(tasks) > 1:
            results = self._run_pool(tasks)
        effective_jobs = self.jobs
        if results is None:
            # Honest artefacts: a degraded run must not claim its
            # wall clock came from N workers.
            effective_jobs = 1
            results = [_run_task(task) for task in tasks]
        return CampaignResult(
            campaign=self.campaign, jobs=effective_jobs, results=results,
            wall_seconds=time.perf_counter() - t0,
            jobs_requested=self.jobs,
        )

    def _run_pool(self, tasks) -> Optional[List[RunResult]]:
        """Fan out over multiprocessing; None means "fall back serial".

        Only pool *creation* may fall back (restricted sandboxes):
        once workers exist, task errors propagate — silently re-running
        a half-finished campaign serially would mask the failure and
        double the wall time.
        """
        try:
            import multiprocessing

            pool = multiprocessing.Pool(processes=self.jobs)
        except (ImportError, OSError, PermissionError):
            return None
        with pool:
            # Small chunks keep the pool load-balanced (scenario
            # durations vary wildly); batching only once the task list
            # dwarfs the worker count keeps per-task IPC amortised.
            chunksize = max(1, len(tasks) // (self.jobs * 8))
            return pool.map(_run_task, tasks, chunksize=chunksize)


def verify_determinism(parallel: CampaignResult,
                       serial: CampaignResult) -> None:
    """Assert per-seed metrics are identical between two executions.

    Used by the tests and by ``repro.cli campaign --compare-serial``
    to turn the "bit-identical serial vs parallel" guarantee into a
    checked invariant.
    """
    a, b = parallel.per_seed_metrics(), serial.per_seed_metrics()
    if a != b:
        diffs = []
        for scenario in sorted(set(a) | set(b)):
            if a.get(scenario) != b.get(scenario):
                diffs.append(scenario)
        raise AssertionError(
            f"per-seed metrics diverged between executions in: {diffs}"
        )
