"""The seven benchmark workloads, as plain ``ScenarioSpec`` data.

Every workload is a (spec, optional adversary) pair built only from the
public declarative types, so a run goes through the same
``build_scenario_system`` path campaigns and the explorer use.  Names
are stable identifiers — BENCHMARK.json, the committed baseline and
every later PR's before/after table key on them.

``scale`` divides the plan *duration* (and everything tied to it: crash
instants, fault horizon, heartbeat horizon); rates, topologies and
mixes never change, so a ``--quick`` (÷20) run exercises the same code
paths on a shorter plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.store.spec import StoreSpec

#: The workload with an offered-rate sweep (``max_rate_ok``), its rate
#: ladder (txns per sim-time unit), plan length, and the service limits
#: a rate must meet.
SWEEP_WORKLOAD = "store_rebalance"
SWEEP_RATES = (0.75, 1.0, 1.25, 1.5, 2.0)
SWEEP_DURATION = 600.0
SWEEP_P99_LIMIT = 75.0
SWEEP_MIN_GOODPUT = 0.95


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build it and what it must show.

    Why each one exists is recorded in BENCHMARK.json (``why``).
    """

    name: str
    #: scale -> (spec, adversary or None)
    build: Callable[[float], Tuple[ScenarioSpec, Optional[AdversarySpec]]]
    #: Metric-name prefixes the layer table says read 0 here (a layer
    #: that wakes up on a workload built to bypass it is a finding).
    idle: Tuple[str, ...] = ()
    #: Counters that must be > 0, or the workload stopped exercising
    #: the layer it exists for.
    must_exercise: Tuple[str, ...] = ()


def _poisson(rate: float, duration: float, k: Optional[int],
             senders=None) -> WorkloadSpec:
    destinations = (DestinationSpec(kind="all") if k is None
                    else DestinationSpec(kind="uniform-k", k=k))
    return WorkloadSpec(kind="poisson", rate=rate, duration=duration,
                        destinations=destinations, senders=senders)


def _a1_global(scale: float):
    return ScenarioSpec(
        name="a1_global", protocol="a1", group_sizes=(3, 3, 3),
        latency=LatencySpec.logical(),
        workload=_poisson(150.0, 40.0 / scale, k=2),
        checkers=("properties",),
    ), None


def _a1_local(scale: float):
    return ScenarioSpec(
        name="a1_local", protocol="a1", group_sizes=(3, 3, 3),
        latency=LatencySpec.logical(),
        workload=_poisson(150.0, 80.0 / scale, k=1),
        checkers=("properties",),
    ), None


def _a2_bcast(scale: float):
    return ScenarioSpec(
        name="a2_bcast", protocol="a2", group_sizes=(3, 3, 3),
        latency=LatencySpec.logical(),
        workload=_poisson(100.0, 300.0 / scale, k=None),
        start_rounds=True,
        checkers=("properties",),
    ), None


def _store_mix(scale: float):
    return ScenarioSpec(
        name="store_mix", protocol="a1", group_sizes=(2,) * 8,
        latency=LatencySpec.wan(),
        store=StoreSpec(n_keys=256, rate=0.12, duration=60000.0 / scale,
                        read_fraction=0.5, multi_partition_fraction=0.4,
                        zipf_skew=1.0),
        checkers=("properties", "serializability", "convergence"),
    ), None


def rebalance_spec(rate: float, duration: float) -> ScenarioSpec:
    """The ``rebalance`` campaign's 16-group cell at one offered rate."""
    return ScenarioSpec(
        name="store_rebalance", protocol="a1", group_sizes=(2,) * 16,
        store=StoreSpec(
            n_keys=96, routing="genuine", placement="ring",
            rate=rate, duration=duration, read_fraction=0.5,
            multi_partition_fraction=0.4, ops_per_txn=2,
            zipf_skew=1.0, popularity="global",
            service_time=2.5, notice_delay=0.5,
            rebalance_interval=10.0, rebalance_threshold=1.3,
        ),
        checkers=("properties", "serializability", "convergence",
                  "reconfig"),
    )


def _store_rebalance(scale: float):
    # Rate 0.75, not the campaign's 1.5: the balancer decides on ~10
    # transactions of heat per tick, so near saturation its choices —
    # and with them every metric — swing 15-50 % from seed to seed, and
    # a benchmark that cannot tell seeds from regressions is no
    # instrument.  At 0.75 hot partitions still queue (p99 ~4x p50),
    # ~120 migrations complete and seeds agree to ~5 %.
    return rebalance_spec(0.75, 2000.0 / scale), None


def _a1_lossy(scale: float):
    until = 80.0 / scale
    lossy = AdversarySpec(name="bench-lossy", injectors=tuple(
        InjectorSpec(kind=kind,
                     params=(("probability", p), ("until", until)))
        for kind, p in (("drop", 0.10), ("duplicate", 0.05),
                        ("corrupt", 0.02))))
    return ScenarioSpec(
        name="a1_lossy", protocol="a1", group_sizes=(3, 3, 3),
        latency=LatencySpec.logical(),
        workload=_poisson(50.0, until, k=2),
        transport="reliable",
        checkers=("properties", "stabilization"),
    ), lossy


#: hb_crash: who crashes, and when as a fraction of the plan duration.
HB_CRASHES = ((0, 0.15), (8, 0.30), (17, 0.45), (24, 0.60), (1, 0.75))


def _hb_crash(scale: float):
    duration = 1000.0 / scale
    sizes = (8,) * 8
    doomed = {pid for pid, _ in HB_CRASHES}
    # Only processes that stay correct cast, so every planned operation
    # must complete (validity) and any failed op is a real regression.
    senders = tuple(p for p in range(sum(sizes)) if p not in doomed)
    return ScenarioSpec(
        name="hb_crash", protocol="a1", group_sizes=sizes,
        latency=LatencySpec.logical(),
        workload=_poisson(1.5, duration, k=2, senders=senders),
        crashes=CrashSpec(kind="explicit", crashes=tuple(
            (pid, frac * duration) for pid, frac in HB_CRASHES)),
        detector="heartbeat", heartbeat_period=2.5, heartbeat_timeout=12.5,
        heartbeat_horizon=duration + 200.0,
        checkers=("properties",),
    ), None


_NO_STORE = ("transport.", "store.", "reconfig.", "failure.")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("a1_global", _a1_global, idle=_NO_STORE,
             must_exercise=("net.inter_msgs", "core.ts_msgs")),
    Workload("a1_local", _a1_local,
             idle=_NO_STORE + ("net.inter_msgs", "inter_msgs_per_op",
                               "core.ts_msgs"),
             must_exercise=("consensus.instances",)),
    Workload("a2_bcast", _a2_bcast, idle=_NO_STORE,
             must_exercise=("core.rounds", "core.bundle_msgs")),
    Workload("store_mix", _store_mix,
             idle=("transport.", "reconfig.", "failure."),
             must_exercise=("store.txns_committed",)),
    Workload("store_rebalance", _store_rebalance,
             idle=("transport.", "failure."),
             must_exercise=("reconfig.completed", "reconfig.keys_moved")),
    Workload("a1_lossy", _a1_lossy,
             idle=("store.", "reconfig.", "failure."),
             must_exercise=("adversary.faults", "transport.retransmits",
                            "transport.dup_suppressed")),
    Workload("hb_crash", _hb_crash,
             idle=("transport.", "store.", "reconfig."),
             must_exercise=("failure.hb_msgs", "failure.crashes",
                            "consensus.retry_msgs", "outage_sim")),
)}
