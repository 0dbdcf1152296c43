"""One measured pass of one workload, in this (fresh) process.

``python bench/measure.py <workload> --seed N --scale S [--trace DIR]``
(the runner's only way in; ``--sweep`` runs the offered-rate ladder)
builds the workload through the public campaign path —
``ScenarioSpec`` → ``build_scenario_system`` → ``run`` to quiescence →
``extract`` / ``run_checkers`` — and prints one JSON object as its last
line:

* ``host``: wall seconds of set-up, of every run slice, of extraction
  and of each checker, the interleaved calibration readings, and this
  process's peak RSS;
* ``exact``: every sim-time metric and count — a pure function of
  (workload, seed, scale), which the runner asserts across passes;
* ``verdicts`` and the ``fingerprint`` (sha256 over per-process
  delivery sequences and the commit set);
* with ``--trace``: per-layer self seconds and the seam counters of the
  outside-in tracer (see :mod:`tracing`), raw spans written to DIR.

The run is executed in slices of :data:`SLICE_EVENTS` kernel events
through the public ``System.run(max_events=...)``, and a fixed
calibration loop (:func:`calibrate`) is timed between slices and around
set-up and checking.  The shared hosts this runs on slow down by up to
1.5x for tens of seconds at a time — longer than a whole pass, so no
amount of repeating or taking minima inside one invocation removes it.
The calibration loop slows down by the same factor, which lets the
runner express host time in *calibrated* seconds (see ``run.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.campaigns.metrics import extract  # noqa: E402
from repro.campaigns.runner import (  # noqa: E402
    build_scenario_system,
    run_checkers,
)
from repro.runtime.report import percentile  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_DURATION,
    SWEEP_RATES,
    WORKLOADS,
    rebalance_spec,
)

#: Kernel events per timed slice of the run (~50-100 ms of host time).
SLICE_EVENTS = 5000
#: Host seconds the (repeatable) extract-and-check phase, and the
#: repeated set-ups, should each fill.
CHECK_FILL_S = 0.4
SETUP_FILL_S = 0.3


def calibrate(n: int = 5000) -> float:
    """Seconds one fixed heap-and-dict loop takes on this host, now.

    The loop has the simulator kernel's instruction mix (tuple-keyed
    heap pushes and pops, int-keyed dict stores — allocation-heavy, so
    it feels memory contention the way the simulator does) and never
    changes, so its reading measures the host, not the program.  The
    cyclic collector is paused for its duration: otherwise one of its
    tuples can be the allocation that tips a full collection of the
    simulator's heap into the calibration reading.
    """
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    gc.disable()
    try:
        start = perf_counter()
        for i in range(n):
            push(heap, ((i * 7919) % 1000, i, None))
            table[i & 1023] = i
            if i & 1:
                pop(heap)
        while heap:
            pop(heap)
        return perf_counter() - start
    finally:
        gc.enable()


def _preload() -> None:
    """Import what the build/check path imports lazily, before timing."""
    import repro.adversary.injectors  # noqa: F401
    import repro.checkers.stabilization  # noqa: F401
    import repro.core.abcast  # noqa: F401
    import repro.core.amcast  # noqa: F401
    import repro.failure.heartbeat  # noqa: F401
    import repro.reconfig.checker  # noqa: F401
    import repro.reconfig.metrics  # noqa: F401
    import repro.store.checker  # noqa: F401
    import repro.store.cluster  # noqa: F401
    import repro.store.metrics  # noqa: F401
    import repro.transport  # noqa: F401


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: List[float], fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


# ----------------------------------------------------------------------
# Sim-time metrics and counts (exact per seed)
# ----------------------------------------------------------------------
def _operations(system, plans, records) -> Dict[str, object]:
    """Planned vs completed operations and their sim-time latencies.

    A cast completes when every correct addressee A-Delivered it
    (latency: cast instant → last of those deliveries); a transaction
    completes when it commits (issue → commit).  Arrivals are open-loop
    in sim time, so the issue instant *is* the scheduled one.
    """
    cluster = getattr(system, "store_cluster", None)
    if cluster is not None:
        tracker = cluster.tracker
        spans = [tracker.committed[t] for t in tracker.committed_originals()]
        latencies = [commit - issue for issue, commit in spans]
        first = min((issue for issue, _ in spans), default=0.0)
        last = max((commit for _, commit in spans), default=0.0)
        return {"planned": len(cluster.plans), "latencies": latencies,
                "span": last - first}
    topology = system.topology
    correct = set(system.crashes.correct_processes(topology))
    addressees: Dict[tuple, List[int]] = {}
    latencies = []
    first, last = float("inf"), 0.0
    for record in records:
        dests = record.dest_groups
        pids = addressees.get(dests)
        if pids is None:
            pids = addressees[dests] = [
                p for p in topology.processes_of_groups(dests)
                if p in correct]
        times = record.delivery_time
        if record.cast_time is None or any(p not in times for p in pids):
            continue
        done = max(times[p] for p in pids)
        latencies.append(done - record.cast_time)
        first = min(first, record.cast_time)
        last = max(last, done)
    return {"planned": len(plans), "latencies": latencies,
            "span": last - first if latencies else 0.0}


def _outage(system, records) -> float:
    """Longest service gap a crash caused, in sim time.

    Per crash: from the crash instant to the first A-Deliver, inside
    the crashed process's group, of a message cast after the crash.
    """
    worst = 0.0
    for pid, crashed_at in system.crashes.crashes.items():
        gid = system.topology.group_of(pid)
        members = set(system.topology.members(gid))
        resumed = min(
            (t for r in records
             if r.cast_time is not None and r.cast_time > crashed_at
             and gid in r.dest_groups
             for p, t in r.delivery_time.items() if p in members),
            default=None)
        if resumed is not None:
            worst = max(worst, resumed - crashed_at)
    return worst


def _kind_total(by_kind, suffixes) -> int:
    return sum(n for kind, n in by_kind.items() if kind.endswith(suffixes))


def exact_metrics(system, spec, plans, applied) -> Dict[str, float]:
    """Every sim-time metric and deterministic count of one run."""
    families = ["core", "degrees", "traffic", "rounds", "transport"]
    if spec.store is not None:
        families += ["store", "reconfig"]
    raw = extract(system, families)
    records = system.meter.records()
    ops = _operations(system, plans, records)
    latencies = ops["latencies"]
    done = len(latencies)
    planned = ops["planned"]
    stats = system.network.stats
    by_kind = stats.by_kind
    degrees = [r.latency_degree for r in records
               if r.latency_degree is not None]
    msgs = stats.total_messages
    cons_msgs = sum(n for k, n in by_kind.items() if ".cons." in k)
    rmc_msgs = _kind_total(by_kind, (".rmc.data",))
    resent = raw["tsp_retransmits"] + raw["tsp_fast_retransmits"]
    settling = getattr(system, "stabilization_checker", None)
    horizon = min((inj.until for inj in
                   (applied.injectors if applied else ())
                   if getattr(inj, "until", None) is not None),
                  default=None)
    settle = 0.0
    if settling is not None and horizon is not None \
            and settling.last_delivery_at is not None:
        settle = max(0.0, settling.last_delivery_at - horizon)
    out = {
        # End to end.
        "lat_p50_sim": _pct(latencies, 0.50),
        "lat_p99_sim": _pct(latencies, 0.99),
        "ops_planned": planned,
        "ops_completed": done,
        "degree_mean": raw["degree_mean"],
        "inter_msgs_per_op": ratio(stats.inter_group_messages, done),
        "msgs_per_op": ratio(msgs, done),
        "ops_per_simtime": ratio(done, ops["span"]),
        "failed_op_ratio": ratio(planned - done, planned),
        "outage_sim": _outage(system, records),
        # sim
        "sim.events": system.sim.events_executed,
        "sim.events_per_op": ratio(system.sim.events_executed, done),
        # net
        "net.msgs": msgs,
        "net.inter_msgs": stats.inter_group_messages,
        "net.intra_msgs": stats.intra_group_messages,
        "net.dropped": stats.dropped,
        "net.duplicated": stats.duplicated,
        # transport
        "transport.data_copies": raw["tsp_data_copies"],
        "transport.retransmits": resent,
        "transport.acks": raw["tsp_acks_sent"],
        "transport.dup_suppressed": raw["tsp_dup_suppressed"],
        "transport.corrupt_detected": raw["tsp_corrupt_detected"],
        "transport.overhead_per_data": raw["tsp_overhead_copies"],
        "transport.goodput_ratio": ratio(
            raw["tsp_released"], raw["tsp_data_copies"] + resent),
        "transport.settle_sim": settle,
        # rmcast
        "rmcast.msgs": rmc_msgs,
        "rmcast.msgs_per_op": ratio(rmc_msgs, done),
        # consensus
        "consensus.msgs": cons_msgs,
        "consensus.retry_msgs": _kind_total(
            by_kind, (".cons.prepare", ".cons.nack")),
        # core
        "core.casts": raw["casts"],
        "core.deliveries": raw["deliveries"],
        "core.ts_msgs": _kind_total(by_kind, (".ts",)),
        "core.bundle_msgs": _kind_total(by_kind, (".bundle",)),
        "core.rounds": raw["rounds_executed"],
        "core.useful_round_ratio": raw["useful_round_fraction"],
        "core.degree_p99": _pct(degrees, 0.99),
        "core.degree_max": raw["degree_max"],
        # failure
        "failure.hb_msgs": by_kind.get("fd.hb", 0),
        "failure.crashes": len(system.crashes.crashes),
        # adversary
        "adversary.faults": applied.total_faults if applied else 0,
    }
    # Store and reconfig families exist only on store scenarios.
    out.update({
        "store.txns_planned": raw.get("txn_planned", 0),
        "store.txns_committed": raw.get("txn_committed", 0),
        "store.multi_partition_ratio":
            raw.get("txn_multi_partition_fraction", 0),
        "store.retries": raw.get("residue_txns", 0),
        "store.abandoned": raw.get("txns_abandoned", 0),
        "reconfig.initiated": raw.get("reconfigs_initiated", 0),
        "reconfig.completed": raw.get("reconfigs_completed", 0),
        "reconfig.aborted": raw.get("reconfigs_aborted", 0),
        "reconfig.keys_moved": raw.get("reconfig_keys_moved", 0),
        "reconfig.bounces": raw.get("wrong_epoch_bounces", 0),
        "reconfig.bounce_ratio": ratio(
            raw.get("wrong_epoch_bounces", 0), raw.get("txn_planned", 0)),
        "reconfig.ticks": raw.get("balancer_ticks", 0),
        "reconfig.ticks_blocked": raw.get("balancer_ticks_blocked", 0),
        "reconfig.stall_sim": raw.get("migration_stall_time", 0),
    })
    return {name: float(value) for name, value in out.items()}


def fingerprint(system) -> str:
    """sha256 over per-process delivery sequences and the commit set."""
    digest = hashlib.sha256()
    for pid in system.log.processes():
        digest.update(f"{pid}:{','.join(system.log.sequence(pid))};".encode())
    cluster = getattr(system, "store_cluster", None)
    if cluster is not None:
        for txn_id, (issue, commit) in sorted(
                cluster.tracker.committed.items()):
            digest.update(f"{txn_id}@{issue!r}>{commit!r};".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Queue-wait taps (traced pass only: they add per-delivery work)
# ----------------------------------------------------------------------
class _QueueWait:
    """A-Deliver → execute wait per (replica, txn), via public hooks."""

    def __init__(self, system) -> None:
        self.sim = system.sim
        self.delivered: Dict[tuple, float] = {}
        self.waits: List[float] = []
        system.add_delivery_hook(self._on_delivery)
        for store in system.store_cluster.stores.values():
            store.on_execute_hooks.append(self._on_execute)

    def _on_delivery(self, pid: int, msg) -> None:
        self.delivered[(pid, msg.mid)] = self.sim.now

    def _on_execute(self, pid: int, txn_id: str) -> None:
        since = self.delivered.pop((pid, txn_id), None)
        if since is not None:
            self.waits.append(self.sim.now - since)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, scale: float = 1.0,
            trace_dir: Optional[str] = None, spec=None) -> dict:
    """Build, run, extract and check ``workload`` once; see module doc.

    ``spec`` overrides the workload's own scenario: the offered-rate
    sweep reuses this path at other rates, for the exact metrics only
    (so its check phase is not repeated).
    """
    _preload()
    adversary = None
    sweeping = spec is not None
    if not sweeping:
        spec, adversary = WORKLOADS[workload].build(scale)
    tracer = Tracer() if trace_dir is not None else None
    span = tracer.span if tracer else (
        lambda layer, name: contextlib.nullcontext())
    queue_wait = None
    gc.collect()
    # Calibration readings, by the phase they bracket or interleave.
    calib: Dict[str, List[float]] = {
        "setup": [calibrate()], "run": [], "check": []}
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = perf_counter()
        with span("runtime", "setup"):
            system, plans, applied = build_scenario_system(
                spec, seed, adversary)
        setup_s = perf_counter() - start
        calib["setup"].append(calibrate())
        if tracer:
            tracer.self_s.clear()  # set-up is reported by span name
            if spec.store is not None:
                queue_wait = _QueueWait(system)
        slices: List[float] = []
        with span("sim", "run"):
            while system.sim.pending_events:
                start = perf_counter()
                system.run(max_events=SLICE_EVENTS)
                slices.append(perf_counter() - start)
                with span("bench", "calibrate"):
                    calib["run"].append(calibrate())
            system.run_quiescent()

    # Extraction and checking only read the finished system, so the
    # small workloads' ~40 ms check phase is repeated until it has
    # filled CHECK_FILL_S and the per-round medians reported: one
    # reading that short is mostly host jitter.  The phase starts from
    # a collected heap; otherwise whether a full collection of the
    # run's garbage lands inside it is a coin toss per seed.
    extract_rounds: List[float] = []
    checker_rounds: Dict[str, List[float]] = {c: [] for c in spec.checkers}
    refill = 0.0 if sweeping else 1.0 / scale  # share of the fill targets
    filled = 0.0
    gc.collect()
    while not extract_rounds or (filled < CHECK_FILL_S * refill
                                 and len(extract_rounds) < 5):
        calib["check"].append(calibrate())
        start = perf_counter()
        exact = exact_metrics(system, spec, plans, applied)
        digest = fingerprint(system)
        extract_rounds.append(perf_counter() - start)
        calib["check"].append(calibrate())
        verdicts: Dict[str, str] = {}
        for name in spec.checkers:
            start = perf_counter()
            verdicts.update(run_checkers(
                system, dataclasses.replace(spec, checkers=(name,))))
            checker_rounds[name].append(perf_counter() - start)
            calib["check"].append(calibrate())
        filled += extract_rounds[-1] + sum(
            rounds[-1] for rounds in checker_rounds.values())
    extract_s = statistics.median(extract_rounds)
    checkers_s = {name: statistics.median(rounds)
                  for name, rounds in checker_rounds.items()}

    # Set-up is 15-50 ms on most workloads, so it too is repeated to
    # fill SETUP_FILL_S — but only now, on discarded systems: a build
    # before the measured run would shift the process-global message-id
    # counter and with it the run's fingerprint.
    setups = [setup_s]
    waits = queue_wait.waits if queue_wait else []
    del system, plans, applied, queue_wait
    while sum(setups) < SETUP_FILL_S * refill and len(setups) < 5:
        gc.collect()
        calib["setup"].append(calibrate())
        start = perf_counter()
        build_scenario_system(spec, seed, adversary)
        setups.append(perf_counter() - start)
        calib["setup"].append(calibrate())
    setup_s = statistics.median(setups)

    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "host": {
            "setup_s": setup_s, "slices_s": slices,
            "extract_s": extract_s, "checkers_s": checkers_s,
            "calib_s": calib,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "exact": exact,
        "verdicts": verdicts,
        "fingerprint": digest,
    }
    if tracer:
        run_layers = dict(tracer.self_s)
        run_layers.pop("bench", None)  # calibration is not the program
        run_s = sum(run_layers.values())
        named = {layer: run_layers.get(layer, 0.0) for layer in LAYERS}
        result["trace"] = {
            "run_s": run_s,
            "self_s": named,
            "unattributed_s": run_s - sum(named.values()),
            "build_s": tracer.total_s.get("runtime.build", 0.0),
            "plan_s": tracer.total_s.get("workload.plan", 0.0),
            "counts": {
                "sim.scheduled": sum(
                    n for name, n in tracer.calls.items()
                    if name.startswith("event:")),
                "net.send_calls": tracer.calls["net.send"]
                + tracer.calls["net.send_many"],
                "consensus.instances": len(tracer.decided),
                "store.queue_wait_sim_p50": _pct(waits, 0.50),
                "store.queue_wait_sim_p99": _pct(waits, 0.99),
            },
        }
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write_spans(
            os.path.join(trace_dir, f"trace_{workload}.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", metavar="DIR", default=None)
    parser.add_argument("--sweep", action="store_true",
                        help="store_rebalance only: run the offered-rate "
                             "ladder instead, print each rate's exact "
                             "metrics (sim time only, so one process)")
    args = parser.parse_args(argv)
    if args.sweep:
        result = {
            repr(rate): measure(
                args.workload, args.seed, args.scale,
                spec=rebalance_spec(rate, SWEEP_DURATION / args.scale),
            )["exact"]
            for rate in SWEEP_RATES}
    else:
        result = measure(args.workload, args.seed, args.scale, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
