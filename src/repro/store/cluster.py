"""One-call deployment of the transactional partitioned store.

:class:`StoreCluster` assembles the full serving stack over an already
built (or freshly built) :class:`~repro.runtime.builder.System`: the
partition map, one :class:`TransactionalStore` replica per process, the
client sessions with their shared commit tracker, and the scheduled
transaction workload.  :meth:`attach` is the campaign runner's entry
point — ``ScenarioSpec.store`` scenarios flow through the exact same
construction as direct API users, so a campaign run, an adversary
exploration and a hand-built experiment of the same (spec, seed) are
bit-identical.

The cluster is also the measurement surface for the paper's
genuineness claim: :meth:`involvement` reports per-group protocol
traffic against per-group destination counts, so a committed campaign
artifact can show non-destination groups exchanging *zero* messages
under genuine routing while the broadcast reduction drags every group
into every transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interfaces import AppMessage
from repro.failure.schedule import CrashSchedule
from repro.reconfig.balancer import LoadBalancer, tick_times
from repro.runtime.builder import System, SystemSpec, build_system
from repro.store.client import CommitTracker, StoreClient
from repro.store.partition import PartitionMap
from repro.store.service import TransactionalStore
from repro.store.spec import StoreSpec
from repro.store.transaction import Transaction
from repro.store.workload import (
    TxnPlan,
    build_partition_map,
    data_group_ids,
    key_name,
    txn_workload,
)


class TappedEndpoint:
    """Adapter presenting a System-wired endpoint to a store replica.

    The system's builder already installed the real delivery handler
    (log + meter); a replica subscribes through a delivery tap instead,
    so this adapter satisfies the replica's ``set_delivery_handler``
    call by registering a tap, which is called once per message (an
    endpoint's own handler takes a batch).  Casts are recorded by
    :meth:`System.record_cast <repro.runtime.builder.System.record_cast>`
    first, so the latency meter and the property checkers see store
    traffic like any other cast.
    """

    def __init__(self, system: System, pid: int) -> None:
        self._system = system
        self._pid = pid
        self._endpoint = system.endpoints[pid]

    def set_delivery_handler(self, handler) -> None:
        self._system.add_delivery_tap(self._pid, handler)

    def a_mcast(self, msg: AppMessage) -> None:
        """Cast ``msg``; a broadcast protocol's endpoint A-BCasts it."""
        self._system.record_cast(msg)  # a second cast raises here
        if hasattr(self._endpoint, "a_mcast"):
            self._endpoint.a_mcast(msg)
        else:
            self._endpoint.a_bcast(msg)


def describe_divergence(states: Dict[int, Dict[str, object]]) -> str:
    """Pinpoint how per-replica key/value snapshots disagree.

    Returns a report naming every diverging key with the value each
    replica holds for it — so a failed convergence assertion says
    *which* pid and *which* key broke, not just that something did.
    """
    all_keys = sorted({key for state in states.values() for key in state})
    _missing = object()
    lines = []
    for key in all_keys:
        values = {pid: state.get(key, _missing)
                  for pid, state in states.items()}
        if len({repr(v) for v in values.values()}) > 1:
            detail = ", ".join(
                f"pid {pid}: " + ("<missing>" if v is _missing else repr(v))
                for pid, v in sorted(values.items())
            )
            lines.append(f"key {key!r} -> {detail}")
    if not lines:  # identical key/value maps compared unequal upstream
        return "snapshots compare unequal but no key differs"
    return "; ".join(lines)


class InvolvementReport:
    """Per-group participation vs addressing, over one finished run."""

    def __init__(self, sent: Dict[int, int], received: Dict[int, int],
                 dest_txns: Dict[int, int], group_ids) -> None:
        self.sent = sent
        self.received = received
        self.dest_txns = dest_txns
        self.group_ids = tuple(group_ids)

    def non_destination_groups(self) -> List[int]:
        """Groups no transaction was addressed to."""
        return [g for g in self.group_ids if not self.dest_txns.get(g)]

    def non_destination_traffic(self) -> int:
        """Message copies sent or received by non-destination groups.

        Zero is the genuineness claim made quantitative: groups outside
        every destination set exchanged no protocol messages at all.
        """
        return sum(self.sent.get(g, 0) + self.received.get(g, 0)
                   for g in self.non_destination_groups())

    def involved_groups(self) -> List[int]:
        """Groups that sent or received at least one message."""
        return [g for g in self.group_ids
                if self.sent.get(g, 0) or self.received.get(g, 0)]


class StoreCluster:
    """A transactional partitioned-store deployment over one system."""

    def __init__(self, system: System, spec: StoreSpec,
                 partition_map: PartitionMap,
                 stores: Dict[int, TransactionalStore],
                 clients: Dict[int, StoreClient],
                 tracker: CommitTracker,
                 plans: List[TxnPlan],
                 txns: Dict[str, Transaction]) -> None:
        self.system = system
        self.spec = spec
        #: The pristine epoch-0 map (never mutated); each elastic
        #: replica holds its own clone and mutates it at its delivery
        #: points.  Checkers replay the epoch timeline from this one.
        self.partition_map = partition_map
        self.stores = stores
        self.clients = clients
        self.tracker = tracker
        self.plans = plans
        #: txn id -> the one :class:`Transaction` submitted under it,
        #: shared by every replica, client session and journal.
        self.txns = txns
        self.data_gids = data_group_ids(spec, system.topology)
        self.balancer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, spec: SystemSpec, store: Optional[StoreSpec] = None,
              seed: int = 0, crashes: Optional[CrashSchedule] = None,
              trace: bool = False) -> "StoreCluster":
        """Build a store deployment over any protocol of the registry."""
        system = build_system(spec, seed=seed, crashes=crashes, trace=trace)
        return cls.attach(system, store or StoreSpec())

    @classmethod
    def attach(cls, system: System, spec: StoreSpec) -> "StoreCluster":
        """Mount the serving layer on a built system and schedule its
        workload; the cluster becomes ``system.store_cluster``."""
        endpoint = system.endpoints[min(system.endpoints)]
        if spec.routing == "genuine" and not hasattr(endpoint, "a_mcast"):
            raise ValueError(
                f"{system.protocol_name} is a broadcast protocol; store "
                f"scenarios over it need StoreSpec(routing='broadcast')"
            )
        topology = system.topology
        # Clients live in data groups only: a session in a spectator
        # group would make that group a caster, which genuineness
        # legitimately permits — and the idle-bystander measurement
        # is exactly about keeping spectators off the wire entirely.
        client_pids = [
            pid
            for gid in data_group_ids(spec, topology)
            for pid in topology.members(gid)[:spec.clients_per_group]
        ]
        plans = txn_workload(spec, topology, client_pids,
                             system.rng.stream("store-wl"))
        # Checked before anything is mounted or queued: a plan with a
        # time in the past changes nothing.
        times = [plan.time for plan in plans]
        system.sim.check_times(times)
        migrating = spec.rebalance_interval > 0
        if migrating:
            system.sim.check_times(tick_times(
                spec.start, spec.horizon, spec.rebalance_interval))
        pmap = build_partition_map(spec, topology)
        txns: Dict[str, Transaction] = {}
        stores = {
            pid: TransactionalStore(
                system.network.process(pid),
                pmap.clone() if migrating else pmap,
                TappedEndpoint(system, pid), routing=spec.routing,
                service_time=spec.service_time,
                notice_delay=spec.notice_delay,
            )
            for pid in topology.processes
        }
        for gid in topology.group_ids:
            group = [stores[pid] for pid in topology.members(gid)]
            for store in group:
                store.txns = txns
                store.peers = [peer for peer in group if peer is not store]
        # Commits are observed at execution, which lags delivery behind
        # service queues and migration stalls; without them a replica
        # executes inside the A-Deliver, and fences and peer crashes
        # matter only to migrations.
        tracker = CommitTracker(system)
        for store in stores.values():
            store.on_execute_hooks.append(tracker.on_executed)
            store.on_reject_hooks.append(tracker.on_rejected)
            store.peer_crashed = (
                lambda q, _n=system.network: _n.process(q).crashed)
        clients = {pid: StoreClient(stores[pid], tracker,
                                    tag_routes=migrating,
                                    max_retries=spec.max_retries)
                   for pid in client_pids}
        cluster = cls(system, spec, pmap, stores, clients, tracker, plans,
                      txns)
        if migrating:
            for store in stores.values():
                store.bounce_notify = cluster._on_bounce
            cluster.balancer = LoadBalancer(
                cluster, interval=spec.rebalance_interval,
                threshold=spec.rebalance_threshold,
                max_keys=spec.rebalance_keys,
            )
            cluster.balancer.schedule(spec.start, spec.horizon)
        system.sim.call_at_each(times, cluster._submit, plans)
        system.store_cluster = cluster
        return cluster

    def _submit(self, plan: TxnPlan) -> None:
        """Issue one planned transaction from its client session, now."""
        self.clients[plan.client].submit(plan.txn_id, plan.ops)

    def _on_bounce(self, client_pid: int, txn_id: str, gid: int,
                   keys: tuple, updates: Dict[str, tuple]) -> None:
        """Deliver a WrongEpoch notice to the issuing client session."""
        client = self.clients.get(client_pid)
        if client is None:
            return
        if self.system.network.process(client_pid).crashed:
            return  # the notice reaches a dead host; nobody retries
        client.on_wrong_epoch(txn_id, gid, keys, updates)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def store(self, pid: int) -> TransactionalStore:
        """The replica hosted by process ``pid``."""
        return self.stores[pid]

    def client(self, pid: int) -> StoreClient:
        """The client session homed at process ``pid``."""
        return self.clients[pid]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def assert_convergence(self) -> None:
        """Every partition's correct replicas hold identical state.

        Failures pinpoint the diverging group, key and per-pid values
        (see :func:`describe_divergence`); crashed replicas are not
        compared.
        """
        topology = self.system.topology
        for gid in topology.group_ids:
            states = {
                pid: self.stores[pid].owned_snapshot()
                for pid in topology.members(gid)
                if not self.system.network.process(pid).crashed
            }
            if len({repr(sorted(s.items())) for s in states.values()}) > 1:
                raise AssertionError(
                    f"group {gid} replicas diverged: "
                    f"{describe_divergence(states)}"
                )

    def inv(self) -> None:
        """Elastic-routing invariants, checkable at any event boundary
        (the tests step them after every kernel event).

        Every session's own :meth:`StoreClient.inv`; a fence leg stands
        only at the source of the move it was learned from, and only
        until the balancer pushes that move; and — each group judged by
        its most advanced replica, whose view is its group's latest
        position in the order — at most one group holds a key
        executably, none only while the key's handoff is in flight.
        """
        pushed = self.balancer.pushed if self.balancer else ()
        heads = {gid: max((self.stores[pid] for pid in
                           self.system.topology.members(gid)),
                          key=lambda store: len(store.applied))
                 for gid in self.data_gids}
        for client in self.clients.values():
            client.inv()
            for key, (gid,) in client.fences.items():
                rid = client.learned[key]
                op = heads[gid].initiated_reconfigs.get(rid)
                assert op and op.src == gid and key in op.keys, (key, rid)
                assert rid not in pushed, (key, rid)
        for key in map(key_name, range(self.spec.n_keys)):
            owners = [gid for gid, store in heads.items()
                      if store._owns(key) and key not in store.pending_keys]
            moving = any(
                key in store.shed and not heads[store.shed[key][0]]
                .reconfig_finished(store.shed[key][1])
                for store in heads.values())
            assert len(owners) == (0 if moving else 1), (key, owners)

    def involvement(self) -> InvolvementReport:
        """Per-group sent/received copies and destination counts.

        Requires the system to have been built with ``trace=True`` (the
        campaign runner auto-enables it when the ``involvement`` metric
        family is requested, the same rule genuineness uses).
        """
        trace = self.system.network.trace
        if not trace.enabled:
            raise ValueError(
                "involvement accounting requires a system built with "
                "trace=True"
            )
        topology = self.system.topology
        sent: Dict[int, int] = {}
        received: Dict[int, int] = {}
        for event in trace.events:
            if event.event == "send":
                gid = topology.group_of(event.msg.src)
                sent[gid] = sent.get(gid, 0) + 1
            else:
                gid = topology.group_of(event.msg.dst)
                received[gid] = received.get(gid, 0) + 1
        dest_txns: Dict[int, int] = {}
        for rec in self.system.log.record_map.values():
            for gid in rec.msg.dest_groups:
                dest_txns[gid] = dest_txns.get(gid, 0) + 1
        return InvolvementReport(sent, received, dest_txns,
                                 topology.group_ids)
