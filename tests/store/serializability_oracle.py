"""The item-by-item serializability checker, kept as a test oracle.

This is the store checker as it stood before it learned to decide the
passing case on whole journals and whole effects records: it folds
every journal item of every replica one at a time, sorts the atomicity
table, walks every op of every group and compares every op's effects at
every replica.  ``tests/store/test_checker_oracle.py`` runs it next to
:mod:`repro.store.checker` and requires the same serial order, the same
``reconfig_replay`` and, on a violation, the same kind, context and
message.  Nothing outside the tests imports it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.interfaces import AppMessage
from repro.net.topology import Topology
from repro.reconfig.txn import Handoff, ReconfigOp, is_control
from repro.store.checker import SerializabilityViolation, correct_members
from repro.store.transaction import Transaction, execute


class _GroupWalk:
    """The deterministic per-group epoch walk, and what it derives.

    Walking one group's canonical journal against the epoch-0 map
    recomputes, position by position, the map view every correct
    replica of that group must have held — and therefore which ops it
    must have executed (``facts``), which reconfigs its CAS let proceed
    (``proceed``), and which keys were still mid-migration when the run
    ended (``pending_end``).
    """

    def __init__(self, epoch0, executed_in: Dict[str, Tuple[int, ...]],
                 controls: bool) -> None:
        self._epoch0 = epoch0
        self._executed_in = executed_in
        #: does any journal hold a reconfig or handoff?
        self.controls = controls
        #: (txn id, key) -> did the responsible group execute the ops?
        #: With no control in any journal, an untagged txn has no entry:
        #: its responsible group is the key's epoch-0 owner (``owned``).
        self.facts: Dict[Tuple[str, str], bool] = {}
        #: reconfig id -> the source CAS decision.
        self.proceed: Dict[str, bool] = {}
        #: reconfig id -> its op (for the moving key set).
        self.ops: Dict[str, ReconfigOp] = {}
        #: reconfig id -> {moving key -> the earlier reconfig whose
        #: handoff imported that key into this move's source}, for
        #: every move that proceeded: a key's epoch chain, backwards.
        self.key_imports: Dict[str, Dict[str, str]] = {}
        #: (key, importing reconfig id or None for epoch 0) -> [first,
        #: last] txn that executed the key under that tenure.
        self.spans: Dict[Tuple[str, Optional[str]], List[str]] = {}
        #: gid -> the group's final map view.
        self.views: Dict[int, object] = {}
        #: gid -> keys still awaiting their handoff at the end.
        self.pending_end: Dict[int, Set[str]] = {}

    def owned(self, txn: Transaction) -> Callable[[str], bool]:
        """The keys of ``txn`` whose ops the responsible group ran."""
        if txn.routes is None and not self.controls:
            gids = self._executed_in[txn.txn_id]
            group_of = self._epoch0.group_of
            return lambda key: group_of(key) in gids
        facts, txn_id = self.facts, txn.txn_id
        return lambda key: facts.get((txn_id, key), False)

    def last_before(self, rid: str, key: str) -> Optional[str]:
        """The last txn to execute ``key`` before move ``rid`` shed it,
        chased back through tenures in which nobody touched the key."""
        tenure = self.key_imports.get(rid, {}).get(key)
        while (key, tenure) not in self.spans and tenure is not None:
            tenure = self.key_imports.get(tenure, {}).get(key)
        return self.spans.get((key, tenure), (None, None))[1]


class OracleSerializabilityChecker:
    """Incremental collector + final one-copy verifier.

    Feed every A-Deliver event through :meth:`on_delivery` (directly,
    or via ``system.add_delivery_hook``), or fold finished execution
    journals in with :meth:`ingest_journals`; replica-consistency
    violations raise at the offending item.  After the run,
    :meth:`finalize` runs the atomicity, embedding and replay checks
    against the finished cluster.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._group_order: Dict[int, List[str]] = {}
        self._positions: Dict[int, int] = {}
        self._txns: Dict[str, object] = {}
        self.deliveries = 0
        #: Filled by finalize: reconfig id -> {"proceeded": bool,
        #: "snapshot": ((key, value), ...)} — the authoritative CAS
        #: decision and the one-copy source state at each R.  The
        #: reconfig checker compares the actual handoffs against this.
        self.reconfig_replay: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Streaming half
    # ------------------------------------------------------------------
    def on_delivery(self, pid: int, msg: AppMessage) -> None:
        """Fold one execution event into the per-group canonical orders.

        Control messages (reconfig/handoff) are skipped here: the
        delivery stream interleaves them with data, but their order
        positions are only meaningful in the execution journals, which
        :func:`check_serializability` folds post-hoc.
        """
        if is_control(msg.payload):
            return
        txn = Transaction.from_payload(msg.payload)
        self._ingest(pid, txn.txn_id, txn)
        self.deliveries += 1

    def ingest_journals(self, cluster) -> None:
        """Fold every replica's execution journal (data + controls)."""
        for pid in sorted(cluster.stores):
            store = cluster.stores[pid]
            for item_id, item in zip(store.applied, store.applied_txns):
                self._ingest(pid, item_id, item)
        # A replica that never crashed must have executed every item of
        # its group's canonical journal; a crashed one may stop early.
        for gid, pids in correct_members(cluster).items():
            order = self._group_order.get(gid, [])
            for pid in pids:
                store = cluster.stores.get(pid)
                applied = store.applied if store is not None else []
                for position, item_id in enumerate(order):
                    if position >= len(applied):
                        raise SerializabilityViolation(
                            f"replica {pid} never crashed but executed "
                            f"only {position} of group {gid}'s "
                            f"{len(order)} journal items, stopping "
                            f"before {item_id} — a correct replica must "
                            f"execute its group's whole journal",
                            kind="truncated_journal", pid=pid, gid=gid,
                            position=position, expected=item_id,
                        )

    def _ingest(self, pid: int, item_id: str, item) -> None:
        if item_id not in self._txns:
            self._txns[item_id] = item
        gid = self._topology.group_of(pid)
        order = self._group_order.setdefault(gid, [])
        position = self._positions.get(pid, 0)
        if position < len(order):
            if order[position] != item_id:
                raise SerializabilityViolation(
                    f"replica {pid} executed {item_id} at position "
                    f"{position}, but group {gid}'s canonical order has "
                    f"{order[position]} there — partition replicas "
                    f"disagree on their serial order",
                    kind="replica_divergence", pid=pid, gid=gid,
                    txn=item_id, position=position,
                    expected=order[position],
                )
        else:
            order.append(item_id)
        self._positions[pid] = position + 1

    def group_orders(self) -> Dict[int, Tuple[str, ...]]:
        """Per-group canonical execution orders observed so far."""
        return {gid: tuple(order)
                for gid, order in self._group_order.items()}

    # ------------------------------------------------------------------
    # Final half
    # ------------------------------------------------------------------
    def finalize(self, cluster) -> Tuple[str, ...]:
        """Run atomicity + embedding + one-copy replay; returns the
        global serial order (data transactions) on success."""
        correct = correct_members(cluster)
        executed_in = self._check_atomicity(cluster, correct)
        walk = self._walk_groups(cluster, executed_in)
        order = self._global_order(walk)
        self._replay_and_compare(cluster, order, walk, correct)
        return order

    @staticmethod
    def _stalled_in(cluster, members: List[int]) -> Set[str]:
        """Data txns still queued behind a migration at ``members``."""
        stalled: Set[str] = set()
        for pid in members:
            stalled.update(cluster.stores[pid].stalled_txn_ids())
        return stalled

    def _check_atomicity(self, cluster, correct: Dict[int, List[int]]
                         ) -> Dict[str, Tuple[int, ...]]:
        """Raise on a partial commit; returns item id -> the groups
        that executed it."""
        cast_map = cluster.system.log.cast_map
        executed_in: Dict[str, Tuple[int, ...]] = {}
        for gid, order in self._group_order.items():
            for item_id in order:
                gids = executed_in.get(item_id, ())
                if gid not in gids:
                    executed_in[item_id] = gids + (gid,)
        for item_id, gids in sorted(executed_in.items()):
            mid = item_id[1:] if item_id.startswith("@") else item_id
            cast = cast_map.get(mid)
            if cast is None:
                raise SerializabilityViolation(
                    f"transaction {item_id} was executed but never "
                    f"submitted",
                    kind="phantom_txn", txn=item_id,
                )
            for gid in cast.dest_groups:
                if gid in gids:
                    continue
                if not correct[gid]:
                    continue  # the whole partition crashed; excusable
                if (not item_id.startswith("@")
                        and item_id in self._stalled_in(cluster,
                                                        correct[gid])):
                    # Queued behind a migration whose handoff never
                    # landed (e.g. the designated caster crashed): the
                    # txn is uncommitted, not partially committed.
                    continue
                raise SerializabilityViolation(
                    f"partial commit: {item_id} was executed by "
                    f"partition(s) {sorted(gids)} but destination "
                    f"partition {gid} (with correct replicas) never "
                    f"executed it",
                    kind="partial_commit", txn=item_id, gid=gid,
                    executed_in=sorted(gids),
                )
        return executed_in

    def _global_order(self, walk: _GroupWalk) -> Tuple[str, ...]:
        """Kahn's topological sort over the per-group data chains and
        the conflict edges across each completed move.

        Only data transactions join the graph: each group's journal
        restricted to data is its serialization commitment (data never
        reorders against data), while a control's position relative to
        *unrelated* data is an artifact of the stall-overtake rule and
        must not constrain the global order.  A key's old and new
        owner need share no transaction, so each move adds the edge it
        implies: the last txn to execute the key before R precedes the
        first to execute it after H.  Ties (transactions with no
        constraint between them) break by txn id, so the returned order
        is deterministic.
        """
        data_ids = {t for t, item in self._txns.items()
                    if isinstance(item, Transaction)}
        # An edge may repeat (two txns adjacent in several groups); it
        # counts once per occurrence on both sides, so a txn becomes
        # ready exactly when its last predecessor is serialised.
        successors: Dict[str, List[str]] = {}
        indegree: Dict[str, int] = {t: 0 for t in data_ids}
        def edges():
            for order in self._group_order.values():
                chain = [t for t in order if t in data_ids]
                yield from zip(chain, chain[1:])
            for (key, rid), span in walk.spans.items():
                if rid is not None:
                    yield walk.last_before(rid, key), span[0]

        for earlier, later in edges():
            if earlier is not None:
                successors.setdefault(earlier, []).append(later)
                indegree[later] += 1
        ready = [t for t, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        serial: List[str] = []
        while ready:
            txn_id = heapq.heappop(ready)
            serial.append(txn_id)
            for nxt in successors.get(txn_id, ()):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(serial) != len(data_ids):
            stuck = sorted(t for t, deg in indegree.items() if deg > 0)
            raise SerializabilityViolation(
                f"no global serial order embeds the per-partition logs: "
                f"precedence cycle through {stuck[:6]}"
                + ("..." if len(stuck) > 6 else ""),
                kind="cycle", transactions=stuck,
            )
        return tuple(serial)

    def _walk_groups(self, cluster, executed_in: Dict[str, Tuple[int, ...]]
                     ) -> _GroupWalk:
        """Re-derive every group's epoch timeline from its journal.

        The walk mirrors the replica's control logic exactly — source
        CAS, shed, tentative flip, handoff settle/unwind — but runs on
        the *canonical journal* against the pristine epoch-0 map, so
        its outputs are a function of the journals alone, independent
        of any replica's in-memory state.
        """
        controls = any(not isinstance(item, Transaction)
                       for item in self._txns.values())
        walk = _GroupWalk(cluster.partition_map, executed_in, controls)
        for gid in sorted(self._group_order):
            order = self._group_order[gid]
            view = cluster.partition_map.clone()
            pending: Dict[str, str] = {}
            shed: Dict[str, str] = {}
            pend_meta: Dict[str, dict] = {}
            settled: Set[str] = set()
            imported: Dict[str, str] = {}
            for item_id in order:
                item = self._txns[item_id]
                if isinstance(item, ReconfigOp):
                    rid = item.reconfig_id
                    walk.ops[rid] = item
                    if gid == item.src:
                        ok = all(
                            view.group_of(k) == item.src
                            and k not in pending and k not in shed
                            for k in item.keys
                        )
                        walk.proceed[rid] = ok
                        if ok:
                            walk.key_imports[rid] = {
                                k: imported[k] for k in item.keys
                                if k in imported
                            }
                            for k in item.keys:
                                shed[k] = rid
                            view.apply_move(item.keys, item.dst)
                        else:
                            settled.add(rid)
                    elif gid == item.dst:
                        if rid in settled:
                            continue
                        pend_meta[rid] = view.assignments_of(item.keys)
                        for k in item.keys:
                            pending[k] = rid
                        view.apply_move(item.keys, item.dst)
                elif isinstance(item, Handoff):
                    rid = item.reconfig_id
                    if rid in settled and rid not in pend_meta:
                        continue  # duplicate handoff
                    if gid == item.dst:
                        prev = pend_meta.pop(rid, None)
                        if item.aborted:
                            if prev is not None:
                                view.apply_assignments(prev)
                                for k in item.keys:
                                    if pending.get(k) == rid:
                                        del pending[k]
                        else:
                            if prev is None:
                                view.apply_move(item.keys, item.dst)
                            for k in item.keys:
                                if pending.get(k) == rid:
                                    del pending[k]
                                shed.pop(k, None)
                                imported[k] = rid
                    settled.add(rid)
                else:
                    txn = item
                    for op in txn.ops:
                        key = op[1]
                        if txn.routes is None:
                            if controls and view.group_of(key) == gid:
                                walk.facts[(txn.txn_id, key)] = True
                        elif txn.route_of(key) == gid:
                            ran = (view.group_of(key) == gid
                                   and key not in pending)
                            walk.facts[(txn.txn_id, key)] = ran
                            if ran:
                                walk.spans.setdefault(
                                    (key, imported.get(key)),
                                    [txn.txn_id, txn.txn_id],
                                )[1] = txn.txn_id
            walk.views[gid] = view
            walk.pending_end[gid] = set(pending)
        return walk

    def _replay_and_compare(self, cluster, order: Tuple[str, ...],
                            walk: _GroupWalk,
                            correct: Dict[int, List[int]]) -> None:
        static_map = cluster.partition_map
        single_copy: Dict[str, object] = {}
        for rid, ok in walk.proceed.items():
            if not ok:
                self.reconfig_replay[rid] = {
                    "proceeded": False, "snapshot": (),
                }
        # The handoff of `rid` must carry, per key, the one-copy value
        # left by the last txn that executed the key before R (chased
        # through tenures nobody used): every earlier executor precedes
        # it in some owner's journal, and every later one executes at a
        # new owner after H — it was delivered there after R, pushed or
        # fenced at the bouncer — so the move's edge in the global
        # order puts it after the capture.
        capture_after: Dict[Optional[str], List[Tuple[str, str]]] = {}
        captured: Dict[str, Dict[str, object]] = {}
        for rid in walk.key_imports:
            captured[rid] = {}
            for k in walk.ops[rid].keys:
                capture_after.setdefault(
                    walk.last_before(rid, k), []).append((rid, k))

        def capture(after: Optional[str]) -> None:
            for rid, k in capture_after.get(after, ()):
                if k in single_copy:
                    captured[rid][k] = single_copy[k]

        capture(None)
        for txn_id in order:
            txn = self._txns[txn_id]
            expected = execute(txn, single_copy, owned=walk.owned(txn))
            capture(txn_id)
            for index, op in enumerate(txn.ops):
                key = op[1]
                gid = (txn.route_of(key) if txn.routes is not None
                       else static_map.group_of(key))
                for pid in correct[gid]:
                    observed = cluster.stores[pid].effects_of(txn.txn_id)
                    if observed is None:
                        continue  # atomicity already vouched coverage
                    # Ops the replay fenced out (stale route) have no
                    # entry in `expected`; the replica must have fenced
                    # them identically, so both sides read None.
                    if op[0] == "get":
                        want = expected.reads.get(index)
                        got = observed.reads.get(index)
                        if got != want:
                            raise SerializabilityViolation(
                                f"read divergence: replica {pid} served "
                                f"{txn.txn_id} op#{index} get({key!r}) = "
                                f"{got!r}, but the one-copy replay "
                                f"reads {want!r}",
                                kind="read_divergence", pid=pid,
                                txn=txn.txn_id, key=key, op_index=index,
                            )
                    elif op[0] == "cas":
                        want = expected.cas_applied.get(index)
                        got = observed.cas_applied.get(index)
                        if got != want:
                            raise SerializabilityViolation(
                                f"cas divergence: replica {pid} decided "
                                f"{txn.txn_id} op#{index} cas({key!r}) "
                                f"applied={got!r}, one-copy replay "
                                f"says {want!r}",
                                kind="cas_divergence", pid=pid,
                                txn=txn.txn_id, key=key, op_index=index,
                            )
        for rid, values in captured.items():
            self.reconfig_replay[rid] = {
                "proceeded": True,
                "snapshot": tuple(
                    (k, values[k]) for k in sorted(walk.ops[rid].keys)
                    if k in values),
            }
        # Final states: every correct replica must hold exactly the
        # one-copy state projected onto its partition, per its group's
        # *final* epoch view.  Keys still mid-migration at the end of
        # the run — shed by the source, never installed at the target
        # because the handoff was lost to a crash — are excluded: their
        # loss shows up as uncommitted transactions, not divergence.
        for gid in self._topology.group_ids:
            view = walk.views.get(gid, static_map)
            skip = walk.pending_end.get(gid, set())
            expected_state = {
                key: value for key, value in single_copy.items()
                if view.group_of(key) == gid and key not in skip
            }
            for pid in correct[gid]:
                got_state = {k: v
                             for k, v in cluster.stores[pid].state.items()
                             if k not in skip}
                if got_state == expected_state:
                    continue
                diverging = sorted(
                    key for key in set(got_state) | set(expected_state)
                    if got_state.get(key) != expected_state.get(key)
                )
                key = diverging[0]
                raise SerializabilityViolation(
                    f"state divergence: replica {pid} (partition {gid}) "
                    f"holds {key!r} = {got_state.get(key)!r}, one-copy "
                    f"replay ends with {expected_state.get(key)!r} "
                    f"({len(diverging)} diverging key(s))",
                    kind="state_divergence", pid=pid, gid=gid, key=key,
                )


def oracle_check(cluster) -> Tuple[str, ...]:
    """Post-hoc one-copy-serializability check over a finished run.

    Folds the per-replica execution journals through the streaming core
    (for static scenarios these equal the delivery logs; for elastic
    ones they additionally carry the reconfig/handoff markers and the
    effects of migration stalls) and runs the final checks; returns the
    global serial order on success.
    """
    checker = OracleSerializabilityChecker(cluster.system.topology)
    checker.ingest_journals(cluster)
    return checker.finalize(cluster)
