"""Canonical throughput scenarios shared by the benchmark suite.

Each scenario is a fixed (protocol, topology, workload plan) triple that
drives a complete simulated run and reports how fast the *simulator*
chewed through it: wall-clock seconds, kernel events per wall second,
and simulated network messages per wall second.  The workload plan is a
pure function of the seed and topology, so the identical plan can be
replayed against different engine versions — `BASELINE_FILE` stores the
numbers measured at the pre-refactor seed commit and
``benchmarks/test_throughput.py`` compares fresh runs against it.

Scenario names are stable identifiers; do not rename without migrating
``baseline_throughput.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List

from repro.runtime.builder import System, build_system
from repro.workload.generators import (
    burst_workload,
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_FILE = os.path.join(HERE, "baseline_throughput.json")


@dataclass
class ThroughputResult:
    """One scenario's outcome (correctness counts + wall-clock speed).

    ``events_per_sec`` counts *simulated message events* (network copies
    pushed through the engine) per wall-clock second.  Because a
    scenario replays a fixed workload plan, this numerator is identical
    across engine versions and the ratio of two runs equals their
    wall-time ratio — the fair basis for before/after comparisons.
    ``kernel_events_per_sec`` counts raw kernel events, which the
    batched network *reduces* for the same work, so it understates
    engine speedups by design.

    ``fd_messages`` counts failure-detector heartbeat copies.  The
    elided heartbeat mode removes exactly those (it provably changes
    nothing else — see :mod:`repro.failure.harness`), so heartbeat
    scenarios compare on :attr:`app_events_per_sec`, whose numerator
    (protocol traffic) stays identical across detector modes.
    """

    scenario: str
    protocol: str
    casts: int
    deliveries: int
    events_executed: int
    network_messages: int
    virtual_end: float
    wall_seconds: float
    fd_messages: int = 0
    # Reliable-transport runs record their counters; bare runs keep the
    # zeros.  At zero loss retransmits must stay 0 (the RTO is derived
    # from the fixed link latency) and acks are the whole overhead.
    tsp_retransmits: int = 0
    tsp_acks: int = 0
    # Parallel-kernel runs record how they were executed; serial runs
    # keep the defaults.  cpu_count is the honest context for any
    # speedup number — on a single-core host the sub-kernels time-share
    # one core and the parallel wall clock can only measure overhead.
    kernel: str = "serial"
    executor: str = ""
    jobs: int = 0
    cpu_count: int = 0

    @property
    def events_per_sec(self) -> float:
        """Simulated message events per wall-clock second."""
        return self.network_messages / self.wall_seconds

    @property
    def kernel_events_per_sec(self) -> float:
        return self.events_executed / self.wall_seconds

    @property
    def msgs_per_sec(self) -> float:
        """Alias of :attr:`events_per_sec` (simulated msgs / wall sec)."""
        return self.network_messages / self.wall_seconds

    @property
    def app_messages(self) -> int:
        """Network copies excluding failure-detector heartbeats."""
        return self.network_messages - self.fd_messages

    @property
    def app_events_per_sec(self) -> float:
        """Protocol (non-detector) message events per wall second."""
        return self.app_messages / self.wall_seconds

    def to_json(self) -> dict:
        data = asdict(self)
        data["events_per_sec"] = round(self.events_per_sec, 1)
        data["kernel_events_per_sec"] = round(self.kernel_events_per_sec, 1)
        data["msgs_per_sec"] = round(self.msgs_per_sec, 1)
        data["app_events_per_sec"] = round(self.app_events_per_sec, 1)
        data["wall_seconds"] = round(self.wall_seconds, 4)
        return data


def _run(name: str, system: System, plans) -> ThroughputResult:
    schedule_workload(system, plans)
    if hasattr(system.endpoints[0], "start_rounds"):
        system.start_rounds()
    t0 = time.perf_counter()
    system.run_quiescent(max_events=50_000_000)
    wall = time.perf_counter() - t0
    deliveries = sum(
        len(system.log.sequence(pid)) for pid in system.log.processes()
    )
    transport = getattr(system, "transport", None)
    return ThroughputResult(
        scenario=name,
        protocol=system.protocol_name,
        casts=len(system.log.cast_messages()),
        deliveries=deliveries,
        events_executed=system.sim.events_executed,
        network_messages=system.network.stats.total_messages,
        virtual_end=system.sim.now,
        wall_seconds=max(wall, 1e-9),
        fd_messages=sum(count for kind, count
                        in system.network.stats.by_kind.items()
                        if kind.startswith("fd.")),
        tsp_retransmits=(transport.stats.retransmits
                         + transport.stats.fast_retransmits
                         if transport is not None else 0),
        tsp_acks=(transport.stats.acks_sent
                  if transport is not None else 0),
    )


def poisson_hi_a1(seed: int = 42) -> ThroughputResult:
    """The headline scenario: high-rate Poisson multicast through A1.

    ~6k messages in 40 virtual time units keeps hundreds of messages
    in flight at once — the regime where PENDING depth makes delivery
    and proposal costs matter, per the refactor's motivation.
    """
    system = build_system(protocol="a1", group_sizes=[3, 3, 3], seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=150.0, duration=40.0,
        destinations=uniform_k_groups(2),
    )
    return _run("poisson_hi_a1", system, plans)


def poisson_hi_a2(seed: int = 42) -> ThroughputResult:
    """High-rate Poisson broadcast through A2's proactive rounds."""
    system = build_system(protocol="a2", group_sizes=[3, 3, 3], seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=30.0, duration=40.0,
    )
    return _run("poisson_hi_a2", system, plans)


def burst_a1(seed: int = 42) -> ThroughputResult:
    """Bursty multicast: deep PENDING sets stress the delivery queue."""
    system = build_system(protocol="a1", group_sizes=[3, 3, 3], seed=seed)
    plans = burst_workload(
        system.topology, system.rng.stream("wl"),
        bursts=8, burst_size=60, gap=12.0,
        destinations=uniform_k_groups(2),
    )
    return _run("burst_a1", system, plans)


def poisson_skeen(seed: int = 42) -> ThroughputResult:
    """Failure-free baseline (decentralised Skeen) under the same load."""
    system = build_system(protocol="skeen", group_sizes=[3, 3, 3], seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=30.0, duration=40.0,
        destinations=uniform_k_groups(2),
    )
    return _run("poisson_skeen", system, plans)


def poisson_sequencer(seed: int = 42) -> ThroughputResult:
    """Sequencer broadcast baseline under the same Poisson load."""
    system = build_system(protocol="sequencer", group_sizes=[3, 3, 3],
                          seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=30.0, duration=40.0,
    )
    return _run("poisson_sequencer", system, plans)


# ----------------------------------------------------------------------
# Large-n heartbeat scenarios
# ----------------------------------------------------------------------
#: 64 processes in 8 groups — the regime where per-run O(n·|group|)
#: detector traffic dwarfs the protocol's own messages.
HB_GROUP_SIZES = [8] * 8
HB_PERIOD = 2.5
HB_TIMEOUT = 12.5


def _hb_system(protocol: str, mode: str, seed: int,
               horizon: float) -> System:
    """A large-n system under a heartbeat detector in ``mode``."""
    return build_system(
        protocol=protocol, group_sizes=HB_GROUP_SIZES, seed=seed,
        detector="heartbeat-elided" if mode == "elided" else "heartbeat",
        heartbeat_period=HB_PERIOD, heartbeat_timeout=HB_TIMEOUT,
        heartbeat_horizon=horizon,
    )


def hb_large_a1(seed: int = 42, mode: str = "elided") -> ThroughputResult:
    """A1 across 8×8 processes with a live heartbeat failure detector.

    ``mode="messages"`` is the pre-PR-equivalent baseline: real
    heartbeat copies (~538k of them — O(n·|group|) per period up to the
    horizon) flow through the network.  ``mode="elided"`` (the default,
    what the suite measures) derives the identical suspicion behaviour
    analytically and sends none; ``benchmarks/test_throughput.py`` runs
    the determinism harness on this very configuration before trusting
    the numbers.
    """
    system = _hb_system("a1", mode, seed, horizon=3_000.0)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=1.5, duration=60.0,
        destinations=uniform_k_groups(2),
    )
    return _run("hb_large_a1", system, plans)


def hb_large_a2(seed: int = 42, mode: str = "elided") -> ThroughputResult:
    """A2 broadcast across 8×8 processes under heartbeats.

    Broadcast puts every process in every destination set, so the
    protocol itself is chatty at n=64; the longer horizon keeps
    detector traffic dominant in message mode, which is exactly the
    overhead profile the elided mode removes.
    """
    system = _hb_system("a2", mode, seed, horizon=4_000.0)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=0.15, duration=60.0,
    )
    return _run("hb_large_a2", system, plans)


def poisson_hi_a1_transport(seed: int = 42) -> ThroughputResult:
    """The headline scenario with the reliable transport mounted.

    Identical topology, seed and workload plan to ``poisson_hi_a1``; the
    only difference is ``transport="reliable"``, so every data copy
    carries a sequence-number/checksum header and every link runs the
    ack/dedup machinery.  The links are perfect here (no adversary), so
    the delta against the base scenario prices the transport's *fixed*
    overhead: header handling, ack copies and timer bookkeeping, with
    zero retransmissions — ``benchmarks/test_throughput.py`` asserts
    that zero and bounds the wall-clock ratio.
    """
    system = build_system(protocol="a1", group_sizes=[3, 3, 3], seed=seed,
                          transport="reliable")
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=150.0, duration=40.0,
        destinations=uniform_k_groups(2),
    )
    return _run("poisson_hi_a1_transport", system, plans)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_parallel(name: str, system, plans) -> ThroughputResult:
    """Mirror of :func:`_run` for a ``ParallelSystem``.

    The plan list is scheduled through the parallel plan API (the
    sub-kernels own their processes' clocks, so ``schedule_workload``'s
    direct ``call_at`` path does not apply), everything else measures
    the same way — the semantic fields (casts, deliveries, network
    messages) must come out identical to the serial scenario.
    """
    system.schedule_plans(plans)
    if hasattr(system.endpoints[0], "start_rounds"):
        system.start_rounds()
    t0 = time.perf_counter()
    system.run_quiescent(max_events=50_000_000)
    wall = time.perf_counter() - t0
    deliveries = sum(
        len(system.log.sequence(pid)) for pid in system.log.processes()
    )
    return ThroughputResult(
        scenario=name,
        protocol=system.protocol_name,
        casts=len(system.log.cast_messages()),
        deliveries=deliveries,
        events_executed=system.sim.events_executed,
        network_messages=system.network.stats.total_messages,
        virtual_end=system.sim.now,
        wall_seconds=max(wall, 1e-9),
        fd_messages=sum(count for kind, count
                        in system.network.stats.by_kind.items()
                        if kind.startswith("fd.")),
        kernel="parallel",
        executor=system.executor_used,
        jobs=system.jobs,
        cpu_count=_available_cpus(),
    )


def _hb_parallel(protocol: str, horizon: float, seed: int,
                 jobs: int, executor: str):
    if executor is None:
        # Threads cannot speed up pure-Python sub-kernels (GIL); real
        # parallelism needs processes, which only pay off with >= 2
        # CPUs.  Inline still exercises the full partitioned path and
        # honestly measures its overhead on single-core hosts.
        executor = "processes" if _available_cpus() >= 2 else "inline"
    return build_system(
        protocol=protocol, group_sizes=HB_GROUP_SIZES, seed=seed,
        detector="heartbeat-elided",
        heartbeat_period=HB_PERIOD, heartbeat_timeout=HB_TIMEOUT,
        heartbeat_horizon=horizon,
        kernel="parallel", jobs=jobs, executor=executor,
    )


def hb_large_a1_parallel(seed: int = 42, jobs: int = 0,
                         executor: str = None) -> ThroughputResult:
    """``hb_large_a1`` under the conservative parallel kernel.

    Same topology, workload plan and elided detector as the serial
    scenario; eight per-group sub-kernels synchronized at unit-lookahead
    epoch barriers.  Semantic fields must equal ``hb_large_a1``'s —
    ``benchmarks/test_throughput.py`` asserts it.
    """
    system = _hb_parallel("a1", horizon=3_000.0, seed=seed,
                          jobs=jobs, executor=executor)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=1.5, duration=60.0,
        destinations=uniform_k_groups(2),
    )
    return _run_parallel("hb_large_a1_parallel", system, plans)


def hb_large_a2_parallel(seed: int = 42, jobs: int = 0,
                         executor: str = None) -> ThroughputResult:
    """``hb_large_a2`` under the conservative parallel kernel."""
    system = _hb_parallel("a2", horizon=4_000.0, seed=seed,
                          jobs=jobs, executor=executor)
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=0.15, duration=60.0,
    )
    return _run_parallel("hb_large_a2_parallel", system, plans)


SCENARIOS: Dict[str, Callable[[], ThroughputResult]] = {
    "poisson_hi_a1": poisson_hi_a1,
    "poisson_hi_a2": poisson_hi_a2,
    "burst_a1": burst_a1,
    "poisson_skeen": poisson_skeen,
    "poisson_sequencer": poisson_sequencer,
    "hb_large_a1": hb_large_a1,
    "hb_large_a2": hb_large_a2,
}

#: Heartbeat scenarios: measured in elided mode against committed
#: message-mode baselines; compared on ``app_events_per_sec``.
HB_SCENARIOS = ("hb_large_a1", "hb_large_a2")

#: Parallel-kernel scenarios, kept out of ``SCENARIOS`` (they have no
#: pre-refactor baseline entry); mapped to the serial scenario whose
#: semantic fields they must reproduce exactly.
PARALLEL_SCENARIOS: Dict[str, Callable[[], ThroughputResult]] = {
    "hb_large_a1_parallel": hb_large_a1_parallel,
    "hb_large_a2_parallel": hb_large_a2_parallel,
}
PARALLEL_BASE = {
    "hb_large_a1_parallel": "hb_large_a1",
    "hb_large_a2_parallel": "hb_large_a2",
}

#: Reliable-transport scenarios, also kept out of ``SCENARIOS`` (no
#: pre-transport baseline entry); mapped to the bare scenario whose
#: semantic fields (casts/deliveries) they must reproduce and whose
#: wall clock bounds their fixed overhead.
TRANSPORT_SCENARIOS: Dict[str, Callable[[], ThroughputResult]] = {
    "poisson_hi_a1_transport": poisson_hi_a1_transport,
}
TRANSPORT_BASE = {
    "poisson_hi_a1_transport": "poisson_hi_a1",
}


def run_all() -> List[ThroughputResult]:
    return [fn() for fn in SCENARIOS.values()]


def load_baseline() -> dict:
    with open(BASELINE_FILE) as fh:
        return json.load(fh)


if __name__ == "__main__":
    results = {r.scenario: r.to_json() for r in run_all()}
    print(json.dumps(results, indent=2))
