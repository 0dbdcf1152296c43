"""Conservative parallel execution of a simulated system, by group.

The serial kernel executes one global ``(time, seq)``-ordered event
queue.  This module partitions a run into **per-group sub-kernels**: one
full system replica per group, each with its own
:class:`~repro.sim.partition.GroupSequencedQueue` and virtual clock,
synchronized at epoch barriers of width

    ``lookahead = LatencyModel.min_inter_group()``

Cross-group sends are diverted into per-sub-kernel outboxes
(:meth:`~repro.net.network.Network.divert_cross_group`) and flushed at
each barrier; a send at time ``t`` inside window ``[eL, (e+1)L)``
arrives no earlier than ``t + L ≥ (e+1)L``, so every window can execute
in parallel without ever delivering into the past.

**Bit-identical to serial.**  The sub-kernel sequence keys are nested
pedigree tuples ``(scheduling time, parent key, call index)`` that
embed the serial kernel's tie-break order exactly (the argument lives
in :mod:`repro.sim.partition`), so delivery orders, checker verdicts
and per-run metrics match the serial kernel bit for bit —
:func:`compare_kernels` is the executable form of that claim.

**The envelope.**  Exact serial-order recovery needs the scenario to be
reproducible from per-group information alone:

* at least two groups, with a strictly positive inter-group latency
  lower bound (the lookahead);
* all latency distributions :class:`~repro.net.topology.Fixed` — jitter
  draws come from one shared RNG stream whose consumption order is a
  global side channel;
* a failure detector whose answers are functions of virtual time and
  the crash schedule (``perfect``, ``heartbeat``, ``heartbeat-elided``;
  the eventually-perfect oracle draws per-query randomness);
* no adversary delay hooks or delivery filters;
* workload/transaction plans sorted by time and group-major at equal
  times (generated workloads are; hand-built ones are validated).

Scenarios outside the envelope raise :class:`ParallelKernelError`
(``kernel="parallel"``) or silently fall back to the serial kernel
(``kernel="auto"``).

**Replication, not splitting.**  Every sub-kernel builds the *complete*
system for the scenario — same seed, same topology, same crash schedule
(crash events execute everywhere, so time-analytic detectors agree) —
but only schedules and executes its own group's workload, warm-ups and
deliveries.  A designated never-run *host* system is built identically;
after the run the per-replica artifacts (delivery log, latency meter,
network stats, traces, store journals) are merged onto the host, so
``RunReport``, metric extractors and checkers operate unchanged.
Observable results are independent of worker count and executor.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.topology import LatencyModel
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.partition import (
    SETUP_BAND_ROUNDS,
    SETUP_BAND_WORKLOAD,
    GroupSequencedQueue,
    Outbox,
    OutboundCopy,
    epoch_of,
    window_end,
)


class ParallelKernelError(ValueError):
    """The scenario lies outside the parallel kernel's envelope."""


#: Detectors whose answers are pure functions of virtual time and the
#: (globally replayed) crash schedule — safe to replicate per group.
PARALLEL_DETECTORS = ("perfect", "heartbeat", "heartbeat-elided")

#: Worker dispatch strategies.  ``inline`` runs sub-kernels in the
#: coordinator (zero overhead, the dev-loop default), ``threads`` uses a
#: thread pool (overlaps only non-GIL work), ``processes`` forks workers
#: that own their replicas and exchange mailboxes over pipes (real
#: multi-core speedup).
EXECUTORS = ("inline", "threads", "processes")

#: Metric keys that legitimately differ between kernels and are excluded
#: from :func:`compare_kernels`' identity check: kernel event counts
#: (crash events replay in every sub-kernel) and wall-clock-derived
#: numbers.  Keys starting with ``phase_`` are excluded as well.
NONCOMPARABLE_METRICS = frozenset(
    {"kernel_events", "events_per_sec", "kernel_events_per_sec",
     "wall_seconds"}
)


def check_envelope(build_kwargs: dict) -> float:
    """Validate ``build_system`` kwargs against the parallel envelope.

    Returns the lookahead (the minimum inter-group latency lower bound).
    Raises :class:`ParallelKernelError` otherwise.
    """
    group_sizes = build_kwargs.get("group_sizes", (3, 3))
    if len(group_sizes) < 2:
        raise ParallelKernelError(
            "the parallel kernel partitions by group; a single-group "
            "topology degenerates to the serial kernel"
        )
    latency = build_kwargs.get("latency") or LatencyModel.logical()
    if not latency.all_fixed():
        raise ParallelKernelError(
            "jittered latency draws consume a shared RNG stream whose "
            "order is a global side channel; the parallel kernel "
            "requires all-Fixed latency distributions"
        )
    try:
        lookahead = latency.min_inter_group()
    except ValueError as exc:
        raise ParallelKernelError(str(exc)) from None
    detector = build_kwargs.get("detector", "perfect")
    if detector not in PARALLEL_DETECTORS:
        raise ParallelKernelError(
            f"detector {detector!r} is outside the parallel envelope; "
            f"its answers are not a pure function of virtual time "
            f"(supported: {PARALLEL_DETECTORS})"
        )
    transport = build_kwargs.get("transport", "none")
    if transport != "none":
        raise ParallelKernelError(
            f"transport {transport!r} is outside the parallel envelope: "
            f"its retransmission timers fire below the lookahead bound "
            f"and its backoff jitter draws from one shared stream whose "
            f"order is a global side channel (use kernel='serial' or "
            f"'auto')"
        )
    return lookahead


def build_parallel_system(build_kwargs: dict, jobs: int = 0,
                          executor: str = "inline") -> "ParallelSystem":
    """Envelope-check and assemble a :class:`ParallelSystem`."""
    lookahead = check_envelope(build_kwargs)
    return ParallelSystem(build_kwargs, lookahead=lookahead, jobs=jobs,
                          executor=executor)


def _check_group_major(entries, what: str) -> None:
    """Require time-sorted, group-major-at-equal-times root schedules.

    ``entries`` is an iterable of ``(time, gid, label)``.  The serial
    kernel executes equal-time root events in scheduling order; the
    partitioned key orders them by group id, so the two agree only when
    equal-time roots are already group-major.
    """
    prev_time: Optional[float] = None
    prev_gid = -1
    prev_label = ""
    for when, gid, label in entries:
        if prev_time is not None and when < prev_time:
            raise ParallelKernelError(
                f"{what} must be sorted by time for the parallel kernel "
                f"({label} at {when:g} follows {prev_label} at "
                f"{prev_time:g})"
            )
        if when == prev_time and gid < prev_gid:
            raise ParallelKernelError(
                f"equal-time {what} must be group-major for the "
                f"parallel kernel: {label} (group {gid}) follows "
                f"{prev_label} (group {prev_gid}) at time {when:g}"
            )
        prev_time, prev_gid, prev_label = when, gid, label


# ----------------------------------------------------------------------
# Per-group replica
# ----------------------------------------------------------------------
@dataclass
class _WorkerConfig:
    """Everything a worker needs to build its replicas (picklable)."""

    build_kwargs: dict
    plans_by_gid: Dict[int, list] = field(default_factory=dict)
    store_spec: object = None
    start_rounds: bool = False


class _GroupReplica:
    """One group's sub-kernel: a full system replica owning one group."""

    def __init__(self, cfg: _WorkerConfig, gid: int,
                 shared_profiler=None) -> None:
        from repro.runtime.builder import build_system

        queue = GroupSequencedQueue(gid)
        sim = Simulator(queue)
        queue.bind(sim)
        system = build_system(_sim=sim, **cfg.build_kwargs)
        self.gid = gid
        self.system = system
        self.queue = queue
        self.owned = frozenset(system.topology.members(gid))
        self.outbox = Outbox(gid, queue)
        system.network.divert_cross_group(gid, self.outbox)
        if shared_profiler is not None:
            # Inline executor: one profiler across coordinator and
            # replicas keeps exclusive-time additivity exact (replica
            # phases nest inside the coordinator's "sync").
            sim.profiler = shared_profiler
            system.network.profiler = shared_profiler
            system.profiler = shared_profiler
        # Message-driven heartbeats: every replica scheduled a beat
        # timer per group at build (identical counter consumption);
        # cancel the non-owned ones so only the owner emits traffic.
        timers = getattr(system.detector, "_timers", None)
        if timers:
            for tgid in [g for g in timers if g != gid]:
                timers.pop(tgid).cancel()
        queue.set_setup_band(SETUP_BAND_ROUNDS)
        if cfg.start_rounds:
            for pid in sorted(self.owned):
                endpoint = system.endpoints[pid]
                if hasattr(endpoint, "start_rounds"):
                    endpoint.start_rounds()
        queue.set_setup_band(SETUP_BAND_WORKLOAD)
        if cfg.store_spec is not None:
            from repro.store.cluster import StoreCluster

            StoreCluster.attach(system, cfg.store_spec,
                                owned_pids=self.owned)
        for when, msg in cfg.plans_by_gid.get(gid, ()):
            system.sim.call_at(when, lambda m=msg: system._do_cast(m),
                               label=f"cast:{msg.mid}")
        queue.begin_run()
        self._catalog = system.catalog
        self._cat_cursor = len(self._catalog._by_mid)

    # ------------------------------------------------------------------
    def next_time(self) -> Optional[float]:
        return self.queue.peek_time()

    def intern(self, msgs) -> None:
        """Adopt application messages cast by other sub-kernels."""
        for msg in msgs:
            self._catalog.intern(msg)
        self._cat_cursor = len(self._catalog._by_mid)

    def inject(self, copies: List[OutboundCopy]) -> None:
        """Queue cross-group arrivals under their sender's seq keys."""
        deliver = self.system.network._deliver
        push = self.queue.push_reserved
        for copy in copies:
            push(copy.arrival_time, copy.seq,
                 lambda m=copy.msg: deliver(m))

    def run_window(self, bound: float, inclusive: bool) -> None:
        self.system.sim.run_window(bound, inclusive)

    def drain_new_casts(self) -> list:
        """Application messages interned here since the last barrier."""
        by_mid = self._catalog._by_mid
        cursor = self._cat_cursor
        self._cat_cursor = len(by_mid)
        if cursor == len(by_mid):
            return []
        return list(by_mid.values())[cursor:]

    # ------------------------------------------------------------------
    def finalize(self) -> dict:
        """Pack this sub-kernel's run artifacts for the host merge."""
        system = self.system
        log = system.log
        sequences = {pid: list(log._sequences[pid])
                     for pid in self.owned if pid in log._sequences}
        # This replica executed exactly its own casts; log insertion
        # order is their execution order.  (cast_time, gid, local index)
        # is the serial execution order across replicas.
        casts = []
        for index, (mid, msg) in enumerate(log._cast.items()):
            rec = system.meter.record_for(mid)
            casts.append(((rec.cast_time, self.gid, index), msg))
        delivered_by = {mid: list(pids)
                        for mid, pids in log._delivered_by.items()}
        stats = system.network.stats
        rounds = {}
        for pid in sorted(self.owned):
            endpoint = system.endpoints[pid]
            executed = getattr(endpoint, "rounds_executed", None)
            if executed is not None:
                rounds[pid] = (executed,
                               getattr(endpoint, "useful_rounds", 0))
        store = None
        cluster = getattr(system, "store_cluster", None)
        if cluster is not None:
            store = {
                pid: {
                    "state": cluster.stores[pid].state,
                    "applied": cluster.stores[pid].applied,
                    "applied_txns": cluster.stores[pid].applied_txns,
                    "effects": cluster.stores[pid]._effects,
                }
                for pid in sorted(self.owned)
            }
        profiler = system.sim.profiler
        return {
            "gid": self.gid,
            "now": system.sim.now,
            "events": system.sim.events_executed,
            "sequences": sequences,
            "casts": casts,
            "delivered_by": delivered_by,
            "meter": system.meter._records,
            "stats": (stats.inter_group_messages,
                      stats.intra_group_messages,
                      stats.by_kind, stats.by_kind_inter, stats.dropped),
            "trace": (list(system.network.trace.events)
                      if system.network.trace.enabled else None),
            "rounds": rounds,
            "store": store,
            "issued": ({pid: list(cluster.clients[pid].issued)
                        for pid in sorted(self.owned)
                        if pid in cluster.clients}
                       if cluster is not None else None),
            "profiler": (dict(profiler.timings())
                         if profiler is not None else None),
        }


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class _LocalWorker:
    """Runs a slice of sub-kernels in the calling process."""

    def __init__(self, cfg: _WorkerConfig, gids: List[int],
                 shared_profiler=None) -> None:
        self.replicas = [_GroupReplica(cfg, gid, shared_profiler)
                         for gid in gids]
        self._shared_profiler = shared_profiler
        self._result = None

    def poll(self) -> Optional[float]:
        times = [t for r in self.replicas
                 if (t := r.next_time()) is not None]
        return min(times) if times else None

    def step(self, bound: float, inclusive: bool,
             arrivals: List[OutboundCopy], casts: list):
        """Inject, run one window on every replica, drain the barriers."""
        by_gid: Dict[int, List[OutboundCopy]] = {r.gid: []
                                                 for r in self.replicas}
        for copy in arrivals:
            by_gid[copy.dst_gid].append(copy)
        for replica in self.replicas:
            if casts:
                replica.intern(casts)
            replica.inject(by_gid[replica.gid])
            replica.run_window(bound, inclusive)
        copies: List[OutboundCopy] = []
        new_casts: list = []
        per_replica = []
        for replica in self.replicas:
            copies.extend(replica.outbox.drain())
            fresh = replica.drain_new_casts()
            per_replica.append((replica, fresh))
            new_casts.extend(fresh)
        # Sibling replicas in the same worker exchange casts directly.
        for replica, fresh in per_replica:
            if fresh:
                for other in self.replicas:
                    if other is not replica:
                        other.intern(fresh)
        now = max(r.system.sim.now for r in self.replicas)
        executed = sum(r.system.sim.events_executed for r in self.replicas)
        return copies, new_casts, self.poll(), now, executed

    # Synchronous async-protocol shims (inline dispatch).
    def step_async(self, *args) -> None:
        self._result = self.step(*args)

    def step_result(self):
        result, self._result = self._result, None
        return result

    def finalize(self) -> List[dict]:
        bundles = [r.finalize() for r in self.replicas]
        if self._shared_profiler is not None:
            for bundle in bundles:
                bundle["profiler"] = None  # already on the shared profiler
        return bundles

    def close(self) -> None:
        pass


class _ThreadWorker:
    """Dispatches a :class:`_LocalWorker`'s steps on a thread pool."""

    def __init__(self, inner: _LocalWorker, pool) -> None:
        self._inner = inner
        self._pool = pool
        self._future = None

    def poll(self) -> Optional[float]:
        return self._inner.poll()

    def step_async(self, *args) -> None:
        self._future = self._pool.submit(self._inner.step, *args)

    def step_result(self):
        future, self._future = self._future, None
        return future.result()

    def finalize(self) -> List[dict]:
        return self._inner.finalize()

    def close(self) -> None:
        pass


def _process_worker_main(conn, cfg: _WorkerConfig,
                         gids: List[int]) -> None:  # pragma: no cover
    # Covered via the processes executor end-to-end tests; coverage
    # tooling does not see forked children.
    worker = _LocalWorker(cfg, gids)
    try:
        while True:
            request = conn.recv()
            command = request[0]
            if command == "poll":
                conn.send(worker.poll())
            elif command == "step":
                conn.send(worker.step(*request[1:]))
            elif command == "finalize":
                conn.send(worker.finalize())
            elif command == "exit":
                return
    except (EOFError, KeyboardInterrupt):
        return
    finally:
        conn.close()


class _ProcessWorker:
    """Proxy for a forked worker owning its replicas; pipes mailboxes."""

    def __init__(self, ctx, cfg: _WorkerConfig, gids: List[int]) -> None:
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_process_worker_main,
                                 args=(child, cfg, gids), daemon=True)
        self._proc.start()
        child.close()

    def poll(self) -> Optional[float]:
        self._conn.send(("poll",))
        return self._conn.recv()

    def step_async(self, bound, inclusive, arrivals, casts) -> None:
        self._conn.send(("step", bound, inclusive, arrivals, casts))

    def step_result(self):
        return self._conn.recv()

    def finalize(self) -> List[dict]:
        self._conn.send(("finalize",))
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()


# ----------------------------------------------------------------------
# The parallel system facade
# ----------------------------------------------------------------------
class ParallelSystem:
    """Drop-in :class:`~repro.runtime.builder.System` running partitioned.

    Attribute access falls through to the never-run *host* system, which
    holds the merged run artifacts after :meth:`run` /
    :meth:`run_quiescent` — so reports, metric extraction and checkers
    written against ``System`` work unchanged.
    """

    kernel = "parallel"

    def __init__(self, build_kwargs: dict, lookahead: float,
                 jobs: int = 0, executor: str = "inline") -> None:
        if executor not in EXECUTORS:
            raise ParallelKernelError(
                f"unknown executor {executor!r}; pick one of {EXECUTORS}"
            )
        from repro.runtime.builder import build_system

        kwargs = dict(build_kwargs)
        if kwargs.get("latency") is None:
            kwargs["latency"] = LatencyModel.logical()
        self._build_kwargs = kwargs
        self.lookahead = lookahead
        self.executor = executor
        #: Executor actually used (``processes`` falls back to
        #: ``inline`` when worker parameters cannot be pickled).
        self.executor_used = executor
        n_groups = len(kwargs["group_sizes"])
        self.jobs = max(1, min(jobs or n_groups, n_groups))
        self._host = build_system(**kwargs)
        self._plans_by_gid: Dict[int, list] = {}
        self._plan_msgs: list = []
        self._store_spec = None
        self._start_rounds = False
        self._ran = False
        #: Wall seconds of the last run (sync + workers), for reports.
        self.wall_seconds: Optional[float] = None

    def __getattr__(self, name):
        # Fallback for everything the facade does not override: the
        # host system carries topology, network, log, meter, detector,
        # crashes, rng, endpoints, store_cluster, profiler, ...
        return getattr(self.__dict__["_host"], name)

    # ------------------------------------------------------------------
    # Workload attachment (mirrors the serial System surface)
    # ------------------------------------------------------------------
    def schedule_plans(self, plans) -> list:
        """Schedule workload cast plans; returns their app messages.

        The parallel counterpart of
        :func:`repro.workload.generators.schedule_workload`: messages
        get explicit ``p%06d`` ids in plan order, so their relative
        lexicographic order (the protocols' tiebreaker) matches the
        serial kernel's eager ``m%06d`` assignment.
        """
        from repro.core.interfaces import AppMessage

        host = self._host
        topology = host.topology
        _check_group_major(
            ((plan.time, topology.group_of(plan.sender),
              f"plan by pid {plan.sender}") for plan in plans),
            "workload plans",
        )
        messages = []
        for index, plan in enumerate(plans):
            dest = (tuple(plan.dest_groups)
                    if plan.dest_groups is not None
                    else tuple(topology.group_ids))
            msg = AppMessage.fresh(sender=plan.sender, dest_groups=dest,
                                   payload=plan.payload,
                                   mid=f"p{index:06d}")
            host._check_broadcast_destinations(msg)
            gid = topology.group_of(plan.sender)
            self._plans_by_gid.setdefault(gid, []).append((plan.time, msg))
            messages.append(msg)
        self._plan_msgs.extend(messages)
        return messages

    def attach_store(self, store_spec):
        """Mount the transactional store; replicas schedule their own
        clients' transactions, the host gets the structure only."""
        from repro.store.cluster import StoreCluster

        cluster = StoreCluster.attach(self._host, store_spec,
                                      owned_pids=frozenset())
        topology = self._host.topology
        _check_group_major(
            ((plan.time, topology.group_of(plan.client), plan.txn_id)
             for plan in cluster.plans),
            "transaction plans",
        )
        self._store_spec = store_spec
        return cluster

    def start_rounds(self) -> None:
        """Warm up proactive protocols (deferred to the sub-kernels)."""
        self._start_rounds = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run partitioned (see :meth:`Simulator.run`); one-shot."""
        return self._run(until=until, max_events=max_events,
                         quiescent=False)

    def run_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until every sub-kernel drains (quiescence required)."""
        return self._run(until=None, max_events=max_events,
                         quiescent=True)

    def _run(self, until, max_events, quiescent) -> float:
        if self._ran:
            raise SimulationError(
                "a partitioned run is one-shot; build a fresh system"
            )
        self._ran = True
        started = time.perf_counter()
        profiler = self._host.profiler
        if profiler is not None:
            profiler.push("sync")
        try:
            workers, pool = self._make_workers()
            try:
                end, executed, drained = self._coordinate(
                    workers, until, max_events)
                bundles: List[dict] = []
                for worker in workers:
                    bundles.extend(worker.finalize())
            finally:
                for worker in workers:
                    worker.close()
                if pool is not None:
                    pool.shutdown(wait=True)
        finally:
            if profiler is not None:
                profiler.pop()
        self._merge(bundles, end, executed)
        self.wall_seconds = time.perf_counter() - started
        if quiescent and not drained:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return end

    # ------------------------------------------------------------------
    def _make_workers(self):
        host = self._host
        n_groups = host.topology.n_groups
        gids = list(range(n_groups))
        slices = [gids[i::self.jobs] for i in range(self.jobs)]
        slices = [s for s in slices if s]
        cfg = _WorkerConfig(
            build_kwargs=self._build_kwargs,
            plans_by_gid=self._plans_by_gid,
            store_spec=self._store_spec,
            start_rounds=self._start_rounds,
        )
        if self.executor == "processes":
            workers = self._make_process_workers(cfg, slices)
            if workers is not None:
                return workers, None
            self.executor_used = "inline"
        if self.executor == "threads":
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=len(slices))
            return [
                _ThreadWorker(_LocalWorker(cfg, chunk), pool)
                for chunk in slices
            ], pool
        shared = host.profiler  # None unless profiling
        return [_LocalWorker(cfg, chunk, shared) for chunk in slices], None

    def _make_process_workers(self, cfg, slices):
        import multiprocessing as mp

        try:
            pickle.dumps(cfg)
        except Exception:
            # Unpicklable build parameters (e.g. a predictor_factory
            # closure): results are identical either way, so degrade to
            # in-process execution instead of failing the run.
            return None
        ctx = mp.get_context()
        try:
            return [_ProcessWorker(ctx, cfg, chunk) for chunk in slices]
        except OSError:  # pragma: no cover - fork-restricted sandboxes
            return None

    # ------------------------------------------------------------------
    def _coordinate(self, workers, until, max_events):
        """The epoch-barrier loop: windows, flushes, routing."""
        lookahead = self.lookahead
        owner = {}
        for index, worker in enumerate(workers):
            for replica_gid in self._worker_gids(index):
                owner[replica_gid] = index
        pending: List[OutboundCopy] = []
        inbox_casts: List[list] = [[] for _ in workers]
        next_times = [worker.poll() for worker in workers]
        executed_by_worker = [0] * len(workers)
        end = 0.0
        drained = True
        while True:
            candidates = [t for t in next_times if t is not None]
            if pending:
                candidates.append(min(c.arrival_time for c in pending))
            if not candidates:
                break
            t_min = min(candidates)
            if until is not None and t_min > until:
                end = until
                drained = False
                break
            if (max_events is not None
                    and sum(executed_by_worker) >= max_events):
                drained = False
                break
            bound = window_end(epoch_of(t_min, lookahead), lookahead)
            inclusive = False
            if until is not None and bound >= until:
                bound, inclusive = until, True
            arrivals: List[List[OutboundCopy]] = [[] for _ in workers]
            for copy in pending:
                arrivals[owner[copy.dst_gid]].append(copy)
            pending = []
            for index, worker in enumerate(workers):
                worker.step_async(bound, inclusive, arrivals[index],
                                  inbox_casts[index])
            inbox_casts = [[] for _ in workers]
            for index, worker in enumerate(workers):
                copies, casts, next_time, now, executed = (
                    worker.step_result())
                pending.extend(copies)
                next_times[index] = next_time
                executed_by_worker[index] = executed
                if now > end:
                    end = now
                if casts:
                    for other in range(len(workers)):
                        if other != index:
                            inbox_casts[other].extend(casts)
            if until is not None and inclusive:
                # Final bounded window ran; the clock stops at `until`
                # exactly like Simulator.run(until=...).
                end = until
                drained = all(t is None for t in next_times) and not pending
                break
        return end, sum(executed_by_worker), drained

    def _worker_gids(self, index: int) -> List[int]:
        gids = list(range(self._host.topology.n_groups))
        return [s for s in [gids[i::self.jobs] for i in range(self.jobs)]
                if s][index]

    # ------------------------------------------------------------------
    # Artifact merge
    # ------------------------------------------------------------------
    def _merge(self, bundles: List[dict], end: float,
               executed: int) -> None:
        host = self._host
        bundles.sort(key=lambda bundle: bundle["gid"])
        # Delivery sequences: each pid's history lives in its owner.
        for bundle in bundles:
            for pid, sequence in bundle["sequences"].items():
                host.log._sequences[pid] = list(sequence)
        # Cast map, in serial execution order (time, gid, local index).
        all_casts = []
        for bundle in bundles:
            all_casts.extend(bundle["casts"])
        all_casts.sort(key=lambda entry: entry[0])
        for _, msg in all_casts:
            host.log._cast[msg.mid] = msg
            host.catalog.intern(msg)
        # Latency meter: cast side from the caster, deliveries from the
        # owners of the delivering pids.
        for bundle in bundles:
            for mid, rec in bundle["meter"].items():
                merged = host.meter._record(mid)
                if rec.cast_pid is not None:
                    merged.cast_pid = rec.cast_pid
                    merged.cast_lamport = rec.cast_lamport
                    merged.cast_time = rec.cast_time
                    merged.dest_groups = rec.dest_groups
                for pid, lamport in rec.delivery_lamport.items():
                    merged.add_delivery(pid, lamport, rec.delivery_time[pid])
        # First-delivery index, ordered (delivery time, gid, local pos).
        ordered_deliverers: Dict[str, list] = {}
        for bundle in bundles:
            gid = bundle["gid"]
            for mid, pids in bundle["delivered_by"].items():
                rec = host.meter.record_for(mid)
                bucket = ordered_deliverers.setdefault(mid, [])
                for position, pid in enumerate(pids):
                    bucket.append(
                        (rec.delivery_time.get(pid, 0.0), gid, position,
                         pid))
        for mid in host.log._cast:
            deliverers = ordered_deliverers.get(mid)
            if deliverers:
                deliverers.sort()
                ordered_pids = [pid for _, _, _, pid in deliverers]
                host.log._delivered_by[mid] = dict.fromkeys(ordered_pids)
                # Rebuild the record's delivery dicts in the same order:
                # per-record latency means sum the dict values, and
                # float addition is order-sensitive.  (time, gid,
                # position) sorts ties — which carry equal values — so
                # the sum is bit-identical to the serial chronological
                # insertion order.
                rec = host.meter.record_for(mid)
                rec.delivery_time = {pid: rec.delivery_time[pid]
                                     for pid in ordered_pids}
                rec.delivery_lamport = {pid: rec.delivery_lamport[pid]
                                        for pid in ordered_pids}
        # Network statistics: sends count at the sender, drops at the
        # destination, so a field-wise sum never double-counts.
        stats = host.network.stats
        for bundle in bundles:
            inter, intra, by_kind, by_kind_inter, dropped = bundle["stats"]
            stats.inter_group_messages += inter
            stats.intra_group_messages += intra
            stats.by_kind.update(by_kind)
            stats.by_kind_inter.update(by_kind_inter)
            stats.dropped += dropped
        # Message trace (genuineness/involvement): merged by time, then
        # group, preserving each sub-kernel's local order.
        if host.network.trace.enabled:
            events = []
            for bundle in bundles:
                for position, event in enumerate(bundle["trace"] or ()):
                    events.append(
                        (event.time, bundle["gid"], position, event))
            events.sort(key=lambda entry: entry[:3])
            trace = host.network.trace
            for _, _, _, event in events:
                if event.event == "send":
                    trace.on_send(event.time, event.msg)
                else:
                    trace.on_deliver(event.time, event.msg)
        # Kernel counters.  events_executed legitimately exceeds the
        # serial count (the crash schedule replays per sub-kernel).
        host.sim._events_executed = executed
        host.sim._now = end
        # Crash flags: a crash at t influenced the run iff t <= end.
        for pid, when in host.crashes.crashes.items():
            if when <= end:
                host.network.process(pid).crashed = True
        # Proactive-protocol round counters for the metrics extractors.
        for bundle in bundles:
            for pid, (rounds_executed, useful) in bundle["rounds"].items():
                endpoint = host.endpoints[pid]
                try:
                    endpoint.rounds_executed = rounds_executed
                    endpoint.useful_rounds = useful
                except AttributeError:
                    # Read-only properties over the round-based base
                    # class's counters: set the backing fields.
                    endpoint._rounds_executed = rounds_executed
                    endpoint._useful_rounds = useful
        # Store journals and the reconstructed commit tracker.
        cluster = getattr(host, "store_cluster", None)
        if cluster is not None:
            for bundle in bundles:
                for pid, journal in (bundle["store"] or {}).items():
                    store = cluster.stores[pid]
                    store.state = dict(journal["state"])
                    store.applied = list(journal["applied"])
                    store.applied_txns = list(journal["applied_txns"])
                    store._effects = dict(journal["effects"])
                for pid, issued in (bundle["issued"] or {}).items():
                    cluster.clients[pid].issued = list(issued)
            self._rebuild_tracker(cluster)
        # Per-sub-kernel profiler timings (threads/processes executors;
        # the inline executor shares the host profiler directly).
        if host.profiler is not None:
            for bundle in bundles:
                if bundle["profiler"]:
                    host.profiler.absorb(bundle["profiler"])

    def _rebuild_tracker(self, cluster) -> None:
        """Recompute commit points from the merged meter and log.

        A transaction commits at the first instant every destination
        group has executed it at some replica: the max over destination
        groups of the group's earliest delivery time.  Issue times are
        the metered cast times (clients register at the cast instant).
        """
        tracker = cluster.tracker
        topology = self._host.topology
        tracker._pending.clear()
        tracker.committed.clear()
        commits = []
        for mid, msg in self._host.log._cast.items():
            rec = self._host.meter.record_for(mid)
            issue = rec.cast_time
            remaining = set()
            commit = 0.0
            for gid in msg.dest_groups:
                times = [rec.delivery_time[pid]
                         for pid in topology.members(gid)
                         if pid in rec.delivery_time]
                if not times:
                    remaining.add(gid)
                else:
                    commit = max(commit, min(times))
            if remaining:
                tracker._pending[mid] = (issue, remaining)
            else:
                commits.append((commit, mid, issue))
        commits.sort()
        for commit, mid, issue in commits:
            tracker.committed[mid] = (issue, commit)


# ----------------------------------------------------------------------
# The comparison harness: the bit-identical claim, executable
# ----------------------------------------------------------------------
@dataclass
class KernelTrace:
    """Everything one kernel's run exposes for identity comparison."""

    kernel: str
    delivery_orders: Dict[int, Tuple[str, ...]]
    checker_verdicts: Dict[str, str]
    metrics: Dict[str, float]
    casts: int
    deliveries: int
    traffic: Dict[str, int]
    virtual_end: float
    wall_seconds: float


def run_kernel(spec, seed: int = 0, kernel: str = "serial",
               jobs: int = 0, executor: str = "inline") -> KernelTrace:
    """Run one scenario seed under the named kernel; trace the result.

    Message ids are renamed to ``c{i}`` by merged cast order, so the
    serial kernel's interpreter-global ``m%06d`` counter and the
    parallel kernel's explicit ``p%06d`` plan ids compare as equal when
    — and only when — the delivery orders truly agree.
    """
    import dataclasses

    from repro.campaigns.runner import build_scenario_system, run_checkers

    spec = dataclasses.replace(spec, kernel=kernel, kernel_jobs=jobs,
                               kernel_executor=executor)
    started = time.perf_counter()
    system, plans, _adversary = build_scenario_system(spec, seed)
    system.run_quiescent(max_events=spec.max_events)
    wall = time.perf_counter() - started
    verdicts = run_checkers(system, spec)
    from repro.campaigns.metrics import extract

    metrics = {
        name: value
        for name, value in extract(system, list(spec.metrics)).items()
        if name not in NONCOMPARABLE_METRICS
        and not name.startswith("phase_")
    }
    rename = {mid: f"c{index}"
              for index, mid in enumerate(system.log.cast_map)}
    delivery_orders = {
        pid: tuple(rename[mid] for mid in system.log.sequence(pid))
        for pid in system.topology.processes
        if system.log.sequence(pid)
    }
    # Checker failure texts cite raw message ids; rename those too so a
    # FAIL-vs-FAIL pair compares by content, not by id scheme.  Ids are
    # fixed-width, so plain replacement cannot hit substrings.
    for name, verdict in verdicts.items():
        if verdict != "ok":
            for mid, alias in rename.items():
                verdict = verdict.replace(mid, alias)
            verdicts[name] = verdict
    return KernelTrace(
        kernel=kernel,
        delivery_orders=delivery_orders,
        checker_verdicts=verdicts,
        metrics=metrics,
        casts=len(system.log.cast_map),
        deliveries=system.log.delivery_count(),
        traffic=system.network.stats.snapshot(),
        virtual_end=system.sim.now,
        wall_seconds=wall,
    )


def _first_divergence(a: Tuple[str, ...], b: Tuple[str, ...]) -> str:
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return (f"position {index}: serial delivered {left}, "
                    f"parallel delivered {right}")
    return (f"serial delivered {len(a)} messages, "
            f"parallel delivered {len(b)}")


def assert_traces_equal(serial: KernelTrace, parallel: KernelTrace,
                        context: str = "") -> None:
    """Raise :class:`AssertionError` at the first observable divergence."""
    where = f" [{context}]" if context else ""
    for pid in sorted(set(serial.delivery_orders)
                      | set(parallel.delivery_orders)):
        seq_a = serial.delivery_orders.get(pid, ())
        seq_b = parallel.delivery_orders.get(pid, ())
        if seq_a != seq_b:
            raise AssertionError(
                f"kernels diverge{where}: pid {pid} delivery order — "
                f"{_first_divergence(seq_a, seq_b)}"
            )
    if serial.checker_verdicts != parallel.checker_verdicts:
        raise AssertionError(
            f"kernels diverge{where}: checker verdicts "
            f"{serial.checker_verdicts} (serial) vs "
            f"{parallel.checker_verdicts} (parallel)"
        )
    for name in sorted(set(serial.metrics) | set(parallel.metrics)):
        left = serial.metrics.get(name)
        right = parallel.metrics.get(name)
        if left != right:
            raise AssertionError(
                f"kernels diverge{where}: metric {name!r} — "
                f"serial {left!r} vs parallel {right!r}"
            )
    if (serial.casts, serial.deliveries) != (parallel.casts,
                                             parallel.deliveries):
        raise AssertionError(
            f"kernels diverge{where}: serial cast/delivered "
            f"{serial.casts}/{serial.deliveries}, parallel "
            f"{parallel.casts}/{parallel.deliveries}"
        )
    if serial.traffic != parallel.traffic:
        raise AssertionError(
            f"kernels diverge{where}: traffic {serial.traffic} (serial) "
            f"vs {parallel.traffic} (parallel)"
        )
    if serial.virtual_end != parallel.virtual_end:
        raise AssertionError(
            f"kernels diverge{where}: virtual end {serial.virtual_end!r} "
            f"(serial) vs {parallel.virtual_end!r} (parallel)"
        )


def compare_kernels(spec, seed: int = 0, jobs: int = 0,
                    executor: str = "inline") -> Dict[str, KernelTrace]:
    """Run a scenario seed under both kernels; assert bit-identity.

    Returns both :class:`KernelTrace` objects (for speedup reporting);
    raises :class:`AssertionError` naming the first divergence if the
    parallel kernel's observable artifacts differ from the serial
    kernel's in any way.
    """
    serial = run_kernel(spec, seed, "serial")
    parallel = run_kernel(spec, seed, "parallel", jobs=jobs,
                          executor=executor)
    assert_traces_equal(serial, parallel,
                        context=f"{spec.name} seed {seed}")
    return {"serial": serial, "parallel": parallel}
