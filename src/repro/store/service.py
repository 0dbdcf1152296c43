"""The serving replica: execute delivered transactions over a partition.

:class:`TransactionalStore` is one process's replica of its group's
partition.  It routes submitted transactions (genuinely, to exactly the
owner groups — or system-wide under ``routing="broadcast"``, the
introduction's non-genuine alternative) and, on A-Deliver, executes
them in delivery order through the shared deterministic executor of
:mod:`repro.store.transaction`, restricted to the keys it owns.

**Elastic repartitioning.**  The replica also speaks the migration
protocol of :mod:`repro.reconfig`: reconfig (**R**) and handoff
(**H**) control messages arrive through the same atomic multicast as
data transactions, so every ownership change has a totally-ordered
position.  On R a source replica snapshots the moving keys, deletes
them (sheds), flips its map view and — if it is the designated
lowest-pid correct source member — casts H carrying the snapshot; a
target replica tentatively flips ownership and *stalls* its execution
pipeline for transactions touching the moving keys until H installs
the state.  A transaction routed under a stale epoch is *fenced*: the
replica that shed the key executes only its still-owned share,
records a rejection, and schedules a ``WrongEpoch`` bounce so the
client can retry the leftover ops against the new owner.  Execution
order always equals delivery order restricted to executed items —
stalled transactions queue strictly FIFO (controls may overtake a
stalled queue head, data never does), which is what keeps the
serializability checker's cross-group precedence graph acyclic.

The replica journals what the checkers need: the per-replica
execution log (``applied``, including ``@mid`` markers for control
messages), the observed read values and cas outcomes per transaction
(``effects_of``), the rejection log, the reconfig outcome maps and the
live partition state (``owned_snapshot``).  The journals share what is
the same across replicas: a replica executes the very
:class:`Transaction` object its client submitted (one per txn id, in
the cluster's ``txns`` table), and stores a group peer's effects
object in place of its own when both observed the same thing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.interfaces import AppMessage
from repro.reconfig.txn import Handoff, ReconfigOp, is_control, parse_control
from repro.sim.process import Process
from repro.store.partition import PartitionMap
from repro.store.transaction import Transaction, TxnEffects, execute

#: Routing disciplines: genuine multicast to the owner groups, or the
#: broadcast-everything reduction the paper's introduction compares
#: against (every group receives and orders every transaction).
ROUTINGS = ("genuine", "broadcast")

# Completion callback: fired with the txn id when the local replica
# executes the transaction (its global position is then fixed).
CompletionHandler = Callable[[str], None]


def _same_entries(a: Dict[int, object], b: Dict[int, object]) -> bool:
    """Same keys, and per key one value object or equal ones of one type
    and repr: a violation quoting either map reads the same."""
    if a is b:
        return True
    if a.keys() != b.keys():
        return False
    for index, value in a.items():
        other = b[index]
        if value is not other and not (
                type(value) is type(other) and value == other
                and repr(value) == repr(other)):
            return False
    return True


class TransactionalStore:
    """One process's replica of the transactional partitioned store."""

    def __init__(
        self,
        process: Process,
        partition_map: PartitionMap,
        multicast,
        routing: str = "genuine",
        service_time: float = 0.0,
        notice_delay: float = 1.0,
    ) -> None:
        """Wrap a multicast endpoint into a transactional replica.

        The endpoint (a :class:`~repro.store.cluster.TappedEndpoint`)
        must not have a delivery handler installed; the store registers
        its own, called once per delivered message.  ``service_time`` > 0 gives the
        replica a serial execution queue (each transaction occupies the
        replica for that long), which is what makes hot partitions
        measurably hot; 0 keeps the legacy execute-at-delivery
        behaviour with no extra simulator events.
        """
        if routing not in ROUTINGS:
            raise ValueError(
                f"unknown routing {routing!r}; have {list(ROUTINGS)}"
            )
        self.process = process
        self.partition_map = partition_map
        self.multicast = multicast
        self.routing = routing
        self.service_time = service_time
        self.notice_delay = notice_delay
        #: txn id -> the submitted :class:`Transaction`; the cluster
        #: wires one table shared by every replica.
        self.txns: Dict[str, Transaction] = {}
        #: the other replicas of this group, wired by the cluster.
        self.peers: List["TransactionalStore"] = []
        self.my_gid = partition_map.topology.group_of(process.pid)
        self.state: Dict[str, object] = {}
        self.applied: List[str] = []          # txn/control ids, exec order
        self.applied_txns: List[object] = []  # Transaction | ReconfigOp | Handoff
        self._effects: Dict[str, TxnEffects] = {}
        self._waiters: Dict[str, List[CompletionHandler]] = {}
        # --- reconfiguration state -----------------------------------
        #: keys this replica's group shed: key -> (new owner, reconfig id).
        self.shed: Dict[str, Tuple[int, str]] = {}
        #: keys tentatively owned here, state still in flight: key -> rid.
        self.pending_keys: Dict[str, str] = {}
        #: reconfigs awaiting their handoff at this (target) replica.
        self.pending_reconfigs: Dict[str, dict] = {}
        #: reconfig id -> virtual completion time at this replica.
        self.completed_reconfigs: Dict[str, float] = {}
        #: reconfig id -> virtual abort time at this replica.
        self.aborted_reconfigs: Dict[str, float] = {}
        #: every R this replica processed, by id (checker input).
        self.initiated_reconfigs: Dict[str, ReconfigOp] = {}
        #: every non-aborted H this replica processed, by id.
        self.handoffs: Dict[str, Handoff] = {}
        #: fenced transactions: dicts of position/txn_id/keys/gid.
        self.rejections: List[dict] = []
        #: txn id -> key it was routed here for before the move arrived.
        self.outran: Dict[str, str] = {}
        # --- execution pipeline --------------------------------------
        self._inbox: List[Tuple[AppMessage, object]] = []
        self._executing = False
        self._stall_since: Optional[float] = None
        #: total virtual time this replica spent stalled on migrations.
        self.stall_time = 0.0
        # --- wiring installed by StoreCluster ------------------------
        #: fired as hook(pid, txn_id) when a data txn executes here.
        self.on_execute_hooks: List[Callable[[int, str], None]] = []
        #: fired as hook(txn_id, gid, keys) when this replica fences one.
        self.on_reject_hooks: List[Callable[[str, int, tuple], None]] = []
        #: callable(client_pid, txn_id, gid, keys, updates) or None.
        self.bounce_notify = None
        #: callable(pid) -> crashed?, for designated-caster election.
        self.peer_crashed = None
        multicast.set_delivery_handler(self._on_deliver)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def destinations_of(self, txn: Transaction,
                        overrides: Optional[Dict[str, int]] = None):
        """The destination-group set ``txn`` will be multicast to.

        ``overrides`` layers a client's learned ownership updates (from
        ``WrongEpoch`` bounces) over this replica's map view.
        """
        if self.routing == "broadcast":
            return tuple(self.partition_map.topology.group_ids)
        if not overrides:
            return self.partition_map.groups_of(txn.keys())
        gids = {overrides.get(k, self.partition_map.group_of(k))
                for k in txn.keys()}
        return tuple(sorted(gids))

    def submit(self, txn: Transaction,
               on_applied: Optional[CompletionHandler] = None,
               dest=None) -> AppMessage:
        """Atomically multicast a one-shot transaction; returns the cast.

        Under genuine routing the destination set is exactly the groups
        owning the declared key set; under broadcast routing it is every
        group (the non-genuine reduction the campaigns quantify).
        ``dest`` lets a client supply the destination set it computed
        (with its own ownership overrides) so registration and routing
        agree exactly.
        """
        if dest is None:
            dest = self.destinations_of(txn)
        if on_applied is not None:
            if self.my_gid not in dest:
                raise ValueError(
                    "completion callbacks need the submitting replica's "
                    "group among the destinations (the local replica "
                    "must execute the transaction)"
                )
            self._waiters.setdefault(txn.txn_id, []).append(on_applied)
        self.txns.setdefault(txn.txn_id, txn)
        msg = AppMessage(txn.txn_id, self.process.pid, dest,
                         txn.to_payload())
        self.multicast.a_mcast(msg)
        return msg

    def submit_reconfig(self, op: ReconfigOp) -> AppMessage:
        """Multicast a reconfiguration genuinely to ``{src, dst}``."""
        msg = AppMessage(op.reconfig_id, self.process.pid, op.dest_groups,
                         op.to_payload())
        self.multicast.a_mcast(msg)
        return msg

    def get(self, key: str) -> object:
        """Read a key from the local replica (must own the partition)."""
        if not self.partition_map.is_replica(self.process.pid, key):
            raise KeyError(
                f"process {self.process.pid} does not replicate {key!r} "
                f"(it lives in group {self.partition_map.group_of(key)})"
            )
        return self.state.get(key)

    def owned_snapshot(self) -> Dict[str, object]:
        """All locally replicated key/value pairs."""
        return dict(self.state)

    def effects_of(self, txn_id: str) -> Optional[TxnEffects]:
        """The effects this replica observed executing ``txn_id``."""
        return self._effects.get(txn_id)

    @property
    def effects(self) -> Dict[str, TxnEffects]:
        """txn id -> the effects this replica observed (the journal
        itself, for readers that look up many ids; do not write it)."""
        return self._effects

    def reconfig_finished(self, reconfig_id: str) -> bool:
        """Has this replica seen the reconfig through to an outcome?"""
        return (reconfig_id in self.completed_reconfigs
                or reconfig_id in self.aborted_reconfigs)

    def stalled_txn_ids(self) -> List[str]:
        """Data transactions still queued behind a migration."""
        return [item.txn_id for _, item in self._inbox
                if isinstance(item, Transaction)]

    # ------------------------------------------------------------------
    # Replication: the execution pipeline
    # ------------------------------------------------------------------
    def _owns(self, key: str) -> bool:
        return self.partition_map.group_of(key) == self.my_gid

    def _on_deliver(self, msg: AppMessage) -> None:
        if is_control(msg.payload):
            item: object = parse_control(msg.payload)
        else:
            item = self.txns.get(msg.mid)
            if item is None or item.to_payload() != msg.payload:
                item = Transaction.from_payload(msg.payload)
        self._inbox.append((msg, item))
        self._pump()

    def _pump(self) -> None:
        """Drain the inbox in order; controls may overtake a stalled
        head (ownership metadata never waits behind data), data never
        reorders against data."""
        while self._inbox and not self._executing:
            msg, item = self._inbox[0]
            if isinstance(item, (ReconfigOp, Handoff)):
                self._inbox.pop(0)
                self._apply_control(msg, item)
                continue
            if self._unresolved(item):
                ctl = next(
                    (i for i, (_, it) in enumerate(self._inbox)
                     if isinstance(it, (ReconfigOp, Handoff))), None)
                if ctl is None:
                    self._begin_stall()
                    return
                cmsg, citem = self._inbox.pop(ctl)
                self._apply_control(cmsg, citem)
                continue
            self._inbox.pop(0)
            self._end_stall()
            if self.service_time > 0 and self._has_local_work(item):
                self._executing = True
                sim = self.process.sim
                sim.call_at(
                    sim.now + self.service_time,
                    lambda m=msg, t=item: self._finish_execute(m, t),
                    label=f"exec:{item.txn_id}@{self.process.pid}",
                )
                return
            self._execute(msg, item)

    def _finish_execute(self, msg: AppMessage, txn: Transaction) -> None:
        if self.process.crashed:
            return  # the replica died with the txn on its belt
        self._executing = False
        self._execute(msg, txn)
        self._pump()

    def _has_local_work(self, txn: Transaction) -> bool:
        """Will this replica execute at least one of the txn's ops?

        Ordering is cheap; execution is the cost.  A delivery that
        executes nothing here — an epoch fence leg at a former owner,
        or a transaction whose local ops were all shed to a new owner —
        takes its journal position immediately instead of occupying the
        service stage, so moving a hot key genuinely moves its
        execution cost.  (The decision is stable across the service
        delay: controls never apply while a transaction is in
        service, so the map view cannot change underneath it.)
        """
        for op in txn.ops:
            key = op[1]
            if txn.routes is not None and txn.route_of(key) != self.my_gid:
                continue
            if self._owns(key):
                return True
        return False

    def _unresolved(self, txn: Transaction) -> bool:
        """Must this transaction wait for a migration to land?

        True when an op addressed *to this group* touches a key whose
        state is still in flight (between R and H).  A key routed here
        that this group neither owns nor shed means the route outran
        the reconfig message — the clients' fence rule makes that
        impossible, so it is journalled (``outran``) for
        ``check_reconfig`` to fail on; the transaction still waits, so
        no state is lost.  Untagged transactions (static deployments)
        never stall.
        """
        if txn.routes is None:
            return False
        for key, gid in txn.routes:
            if gid != self.my_gid:
                continue
            if key in self.pending_keys:
                return True
            if (self.partition_map.group_of(key) != self.my_gid
                    and key not in self.shed):
                self.outran[txn.txn_id] = key
                return True
        return False

    def _begin_stall(self) -> None:
        if self._stall_since is None:
            self._stall_since = self.process.sim.now

    def _end_stall(self) -> None:
        if self._stall_since is not None:
            self.stall_time += self.process.sim.now - self._stall_since
            self._stall_since = None

    # ------------------------------------------------------------------
    # Data execution
    # ------------------------------------------------------------------
    def _execute(self, msg: AppMessage, txn: Transaction) -> None:
        self.applied.append(txn.txn_id)
        self.applied_txns.append(txn)
        if txn.routes is None:
            owned = self._owns
        else:
            owned = (lambda key: txn.route_of(key) == self.my_gid
                     and self._owns(key))
        self._effects[txn.txn_id] = self._shared(
            execute(txn, self.state, owned=owned))
        bounced = tuple(sorted(
            key for key, gid in (txn.routes or ())
            if gid == self.my_gid and key in self.shed
        ))
        if bounced:
            self.rejections.append({
                "position": len(self.applied) - 1,
                "txn_id": txn.txn_id,
                "keys": bounced,
                "gid": self.my_gid,
            })
            for hook in self.on_reject_hooks:
                hook(txn.txn_id, self.my_gid, bounced)
            self._send_bounce(txn, bounced)
        for hook in self.on_execute_hooks:
            hook(self.process.pid, txn.txn_id)
        for waiter in self._waiters.pop(txn.txn_id, []):
            waiter(txn.txn_id)

    def _shared(self, effects: TxnEffects) -> TxnEffects:
        """A peer's record of the same transaction if it observed the
        same thing (same keys, equal values of one type and repr), so a
        group keeps one effects object; else ``effects`` itself."""
        for peer in self.peers:
            seen = peer._effects.get(effects.txn_id)
            if (seen is not None
                    and _same_entries(seen.reads, effects.reads)
                    and _same_entries(seen.cas_applied,
                                      effects.cas_applied)):
                return seen
        return effects

    def _send_bounce(self, txn: Transaction, bounced: tuple) -> None:
        """Schedule the WrongEpoch notice back to the issuing client.

        Modeled as a point-to-point notification outside the multicast
        (``notice_delay`` stands in for the reply latency); it carries
        per key the new owner and the id of the move that shed it, so
        the client can reroute the leftover ops and tell a stale notice
        from a new one.
        """
        if self.bounce_notify is None:
            return
        updates = {k: self.shed[k] for k in bounced}
        sim = self.process.sim
        sim.call_at(
            sim.now + self.notice_delay,
            lambda: self.bounce_notify(txn.client, txn.txn_id,
                                       self.my_gid, bounced, updates),
            label=f"bounce:{txn.txn_id}@{self.process.pid}",
        )

    # ------------------------------------------------------------------
    # Control execution (reconfig / handoff)
    # ------------------------------------------------------------------
    def _apply_control(self, msg: AppMessage, item) -> None:
        self._end_stall()
        self.applied.append(f"@{msg.mid}")
        self.applied_txns.append(item)
        if isinstance(item, ReconfigOp):
            self._apply_reconfig(item)
        else:
            self._apply_handoff(item)

    def _designated_caster(self) -> bool:
        """Is this replica the lowest-pid correct member of its group?"""
        members = self.partition_map.topology.members(self.my_gid)
        if self.peer_crashed is not None:
            members = [q for q in members if not self.peer_crashed(q)]
        return bool(members) and min(members) == self.process.pid

    def _apply_reconfig(self, op: ReconfigOp) -> None:
        rid = op.reconfig_id
        self.initiated_reconfigs[rid] = op
        if self.my_gid == op.src:
            # CAS against this view: the source proceeds only if it
            # still owns every moving key and none is already moving.
            # All source replicas evaluate this at the same position of
            # the same group order, so they decide identically.
            ok = all(
                self.partition_map.group_of(k) == op.src
                and k not in self.pending_keys and k not in self.shed
                for k in op.keys
            )
            snapshot: Tuple[Tuple[str, object], ...] = ()
            if ok:
                snapshot = tuple(
                    (k, self.state[k]) for k in sorted(op.keys)
                    if k in self.state
                )
                for k in op.keys:
                    self.state.pop(k, None)
                    self.shed[k] = (op.dst, rid)
                self.partition_map.apply_move(op.keys, op.dst)
            else:
                self.aborted_reconfigs[rid] = self.process.sim.now
            # The designated source replica ships the handoff — aborted
            # or not, so the target always learns the outcome and can
            # unwind its tentative flip.
            if self._designated_caster():
                h = Handoff(reconfig_id=rid, src=op.src, dst=op.dst,
                            keys=op.keys, snapshot=snapshot,
                            aborted=not ok)
                hmsg = AppMessage(f"{rid}:h{self.process.pid}",
                                  self.process.pid, h.dest_groups,
                                  h.to_payload())
                self.multicast.a_mcast(hmsg)
        elif self.my_gid == op.dst:
            if self.reconfig_finished(rid):
                return  # a handoff already settled this reconfig
            # Tentative flip: ownership changes *now* (this delivery is
            # the epoch boundary); the state arrives with the handoff,
            # and anything touching the keys stalls until it does.
            self.pending_reconfigs[rid] = {
                "op": op,
                "prev": self.partition_map.assignments_of(op.keys),
            }
            for k in op.keys:
                self.pending_keys[k] = rid
            self.partition_map.apply_move(op.keys, op.dst)

    def _apply_handoff(self, h: Handoff) -> None:
        rid = h.reconfig_id
        if self.reconfig_finished(rid) and rid not in self.pending_reconfigs:
            return  # duplicate handoff (racing designated casters)
        self.handoffs.setdefault(rid, h)
        now = self.process.sim.now
        if self.my_gid == h.dst:
            pending = self.pending_reconfigs.pop(rid, None)
            if h.aborted:
                # Roll the tentative flip back to the prior epoch.
                if pending is not None:
                    self.partition_map.apply_assignments(pending["prev"])
                    for k in h.keys:
                        if self.pending_keys.get(k) == rid:
                            del self.pending_keys[k]
                self.aborted_reconfigs[rid] = now
            else:
                if pending is None:
                    # The reconfig's own R has not been processed here
                    # (only reachable if the multicast's pairwise order
                    # is broken); take ownership defensively so state
                    # is not lost, and let the checkers flag the order.
                    self.partition_map.apply_move(h.keys, h.dst)
                self.state.update(h.snapshot_dict())
                for k in h.keys:
                    if self.pending_keys.get(k) == rid:
                        del self.pending_keys[k]
                    self.shed.pop(k, None)
                self.completed_reconfigs[rid] = now
        else:
            # Source (or defensive bystander) side: record the outcome.
            if h.aborted:
                self.aborted_reconfigs.setdefault(rid, now)
            else:
                self.completed_reconfigs[rid] = now
