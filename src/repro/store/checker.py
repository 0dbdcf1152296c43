"""One-copy-serializability checker for the store.

One-shot transactions over atomic multicast are serialisable by
construction *if the protocol keeps its promises*; this checker refuses
to take that on faith.  It verifies, from observed behaviour only:

1. **replica consistency** — within each partition, every replica's
   execution journal must be a prefix of one per-group canonical
   order.  The longest journal of each group is canonical and every
   member's journal is compared with it whole: one list compare per
   replica.  At quiescence a replica that never crashed must hold the
   whole canonical journal; only a crashed one may stop at a prefix;
2. **atomicity** (finalize) — a transaction executed by any partition
   must be executed by every destination partition that still has a
   correct replica (no partial commits).  Each group's journal becomes
   one map, and one pass over the executed items compares each item's
   executing groups with its cast's destinations;
3. **global embedding** (finalize) — the per-partition canonical
   orders of *data* transactions, read as precedence constraints, must
   admit a single global serial order (Kahn's topological sort; a
   cycle is a serializability violation).  Without controls each
   journal is its own chain, so nothing is refiltered;
4. **one-copy equivalence** (finalize) — replaying every transaction
   in that global order on a *single-copy* store must reproduce both
   every read value and cas outcome each replica observed at execution
   time, and every correct replica's final partition state.  A
   single-group txn's replayed effects are compared whole with each
   distinct effects object its group's replicas hold (replicas that
   observed the same thing share one); a multi-group txn's op by op;
   each final state is one dict compare.

Steps 1–3 establish that some serial order exists; step 4 establishes
that the distributed execution is indistinguishable from executing it
on one copy — which is the definition of one-copy serializability.

The whole-record compares decide the passing case only.  When one
fails, the check falls back to the item-by-item rule (journal item by
journal item, atomicity entries in id order, op by op), which raises
the first violation with its kind, context and message.

The check runs once, on the finished run: a passing check's
``reconfig_replay`` is what :func:`repro.reconfig.checker.check_reconfig`
compares the handoffs against, so a checker pass hands it on rather
than replaying the run a second time.

**Epochs.**  Elastic scenarios (:mod:`repro.reconfig`) interleave
reconfig (R) and handoff (H) control messages with data transactions,
so the post-hoc entry point :func:`check_serializability` folds over
per-replica *execution journals* (execution can lag delivery behind
service queues and migration stalls), with the ``@mid`` control
markers included as order items.  The controls do not join the global
precedence graph — a control may legitimately overtake a stalled data
head, so its journal adjacency with unrelated data carries no
semantics — instead each group's journal is *walked* deterministically
(epoch-0 map + the group's own R/H sequence) to recompute which ops
each group should have executed under which epoch.  The one-copy
replay then executes exactly those ops, which makes fenced
(``WrongEpoch``) ops skip on the single copy precisely where they were
skipped in the run.  With no control message and no route tag the walk
would write nothing, so it is skipped: every group stays at the
epoch-0 map and every rule degenerates to the static behaviour above.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.topology import Topology
from repro.reconfig.txn import Handoff, ReconfigOp
from repro.store.transaction import Transaction, TxnEffects, execute


class SerializabilityViolation(AssertionError):
    """The store's execution does not embed into one serial order.

    Mirrors :class:`~repro.checkers.properties.PropertyViolation`:
    ``context`` carries machine-readable details (kind, pid, txn, key,
    position) for the adversary explorer's structured records.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context: Dict[str, object] = context


def correct_members(cluster) -> Dict[int, List[int]]:
    """gid -> the group's members that had not crashed when the run
    ended; crash state is frozen then, so a check reads it once."""
    network = cluster.system.network
    topology = cluster.system.topology
    return {gid: [pid for pid in topology.members(gid)
                  if not network.process(pid).crashed]
            for gid in topology.group_ids}


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
        #: item id -> the groups whose journals hold it.
        self.executed_in = executed_in
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
            gids = self.executed_in[txn.txn_id]
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


class SerializabilityChecker:
    """Journal collector + final one-copy verifier.

    :meth:`ingest_journals` folds a finished cluster's execution
    journals in (replica-consistency violations raise at the offending
    item); :meth:`finalize` then runs the atomicity, embedding and
    replay checks against the same cluster.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._group_order: Dict[int, List[str]] = {}
        self._positions: Dict[int, int] = {}
        self._txns: Dict[str, object] = {}
        #: Filled by finalize: reconfig id -> {"proceeded": bool,
        #: "snapshot": ((key, value), ...)} — the authoritative CAS
        #: decision and the one-copy source state at each R.  The
        #: reconfig checker compares the actual handoffs against this.
        self.reconfig_replay: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Replica consistency
    # ------------------------------------------------------------------
    def ingest_journals(self, cluster) -> None:
        """Fold every replica's execution journal (data + controls).

        The passing case is decided on whole journals: per group, the
        longest member journal is canonical, and every member's must be
        a prefix of it (one list compare each).  Only when one is not
        are the journals folded item by item, which names the first
        divergence.
        """
        stores = cluster.stores
        pids = sorted(stores)
        if not self._fold_whole(stores, pids):
            for pid in pids:
                store = stores[pid]
                for item_id, item in zip(store.applied, store.applied_txns):
                    self._ingest(pid, item_id, item)
        self._check_whole_journals(cluster)

    def _check_whole_journals(self, cluster) -> None:
        """At quiescence a replica that never crashed has executed its
        group's whole canonical journal; only a crashed one may hold a
        prefix (a shorter journal, or none)."""
        for gid, pids in correct_members(cluster).items():
            order = self._group_order.get(gid, ())
            for pid in pids:
                position = self._positions.get(pid, 0)
                if position < len(order):
                    raise SerializabilityViolation(
                        f"replica {pid} never crashed but executed only "
                        f"{position} of group {gid}'s {len(order)} "
                        f"journal items, stopping before "
                        f"{order[position]} — a correct replica must "
                        f"execute its group's whole journal",
                        kind="truncated_journal", pid=pid, gid=gid,
                        position=position, expected=order[position],
                    )

    def _fold_whole(self, stores, pids: List[int]) -> bool:
        """Install every group's longest journal as its canonical order
        if each member's journal is a prefix of it; else change nothing
        and return False."""
        group_of = self._topology.group_of
        members: Dict[int, List[int]] = {}
        for pid in pids:
            if stores[pid].applied:
                members.setdefault(group_of(pid), []).append(pid)
        canonical: Dict[int, List[str]] = {}
        for gid, group in members.items():
            journals = [stores[pid].applied for pid in group]
            longest = max(journals, key=len)
            for applied in journals:
                if (applied is not longest
                        and applied != longest[:len(applied)]):
                    return False
            canonical[gid] = longest
        for gid, longest in canonical.items():
            self._group_order[gid] = list(longest)
            for pid in members[gid]:
                self._positions[pid] = len(stores[pid].applied)
        # The first journal to hold an id supplies its item, as the
        # per-item fold does: later writes win, so write in reverse.
        for pid in reversed(pids):
            store = stores[pid]
            self._txns.update(zip(reversed(store.applied),
                                  reversed(store.applied_txns)))
        return True

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
        """Per-group canonical execution orders."""
        return {gid: tuple(order)
                for gid, order in self._group_order.items()}

    # ------------------------------------------------------------------
    # Atomicity, embedding, one-copy replay
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
        that executed it (in group order).

        One unsorted pass decides the passing case; only an item that
        is unsubmitted or missing at a destination sends the table
        through :meth:`_word_atomicity`, in item-id order."""
        executed_in: Dict[str, Tuple[int, ...]] = {}
        for gid, order in self._group_order.items():
            mine = dict.fromkeys(order, (gid,))
            joined = {item_id: executed_in[item_id] + (gid,)
                      for item_id in mine.keys() & executed_in.keys()}
            executed_in.update(mine)
            executed_in.update(joined)
        records = cluster.system.log.record_map
        for item_id, gids in executed_in.items():
            rec = records.get(
                item_id[1:] if item_id.startswith("@") else item_id)
            cast = rec.msg if rec is not None else None
            if cast is None:
                break
            dest = cast.dest_groups
            if dest != gids and any(gid not in gids and correct[gid]
                                    for gid in dest):
                break
        else:
            return executed_in
        self._word_atomicity(cluster, correct, executed_in)
        return executed_in

    def _word_atomicity(self, cluster, correct: Dict[int, List[int]],
                        executed_in: Dict[str, Tuple[int, ...]]) -> None:
        """Raise the first atomicity violation in item-id order, if an
        excuse (a crashed partition, a stalled txn) does not cover it."""
        records = cluster.system.log.record_map
        for item_id, gids in sorted(executed_in.items()):
            mid = item_id[1:] if item_id.startswith("@") else item_id
            rec = records.get(mid)
            cast = rec.msg if rec is not None else None
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
        if walk.controls:
            data_ids = {t for t, item in self._txns.items()
                        if isinstance(item, Transaction)}
            chains = [[t for t in order if t in data_ids]
                      for order in self._group_order.values()]
        else:  # every item is data: each journal is its chain
            data_ids = self._txns.keys()
            chains = self._group_order.values()
        # An edge may repeat (two txns adjacent in several groups); it
        # counts once per occurrence on both sides, so a txn becomes
        # ready exactly when its last predecessor is serialised.
        successors: Dict[str, List[str]] = defaultdict(list)
        indegree: Dict[str, int] = dict.fromkeys(data_ids, 0)
        for chain in chains:
            for earlier, later in zip(chain, islice(chain, 1, None)):
                successors[earlier].append(later)
                indegree[later] += 1
        for (key, rid), span in walk.spans.items():
            earlier = walk.last_before(rid, key) if rid is not None else None
            if earlier is not None:
                successors[earlier].append(span[0])
                indegree[span[0]] += 1
        ready = [t for t, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        serial: List[str] = []
        pop, push, after = heapq.heappop, heapq.heappush, successors.get
        while ready:
            txn_id = pop(ready)
            serial.append(txn_id)
            for nxt in after(txn_id, ()):
                left = indegree[nxt] - 1
                indegree[nxt] = left
                if not left:
                    push(ready, nxt)
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
        items = self._txns.values()
        controls = not all(issubclass(kind, Transaction)
                           for kind in set(map(type, items)))
        walk = _GroupWalk(cluster.partition_map, executed_in, controls)
        if not controls and not any(map(attrgetter("routes"), items)):
            # Every group stays at epoch 0 and no txn carries a route
            # (a tagged one's routes are never empty): the walk would
            # write nothing, and every view is the epoch-0 map.
            return walk
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

        # gid -> (pid, effects table) of its correct replicas.
        replicas = {gid: [(pid, cluster.stores[pid].effects)
                          for pid in pids]
                    for gid, pids in correct.items()}
        group_of = static_map.group_of
        executed_in = walk.executed_in
        txns = self._txns
        capture(None)
        for txn_id in order:
            txn = txns[txn_id]
            if txn.routes is None:
                gids = [*map(group_of, map(_KEY, txn.ops))]
                # With no control anywhere the filter passes every op
                # whose epoch-0 owner executed the txn: if all did, the
                # replay needs no filter.
                owned = (None if not walk.controls and all(
                    map(executed_in[txn_id].__contains__, gids))
                    else walk.owned(txn))
            else:
                # First tag per key wins, as in Transaction.route_of.
                route = dict(reversed(txn.routes)).get
                gids = [route(op[1]) for op in txn.ops]
                owned = walk.owned(txn)
            expected = execute(txn, single_copy, owned=owned)
            if capture_after:
                capture(txn_id)
            first = gids[0]
            if gids.count(first) != len(gids):
                self._compare_effects(txn, gids, expected, replicas)
                continue
            # One group: its replicas must have observed exactly the
            # replay's effects (ops the replay fenced out have no entry
            # on either side), and those that observed the same thing
            # share one effects object, which is compared once.
            shared = None
            for _, table in replicas[first]:
                observed = table.get(txn_id)
                if observed is None or observed is shared:
                    continue  # atomicity already vouched coverage
                if (observed.reads != expected.reads
                        or observed.cas_applied != expected.cas_applied):
                    self._compare_effects(txn, gids, expected, replicas)
                shared = observed
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
        group_ids = self._topology.group_ids
        expected_states: Dict[int, Dict[str, object]] = {
            gid: {} for gid in group_ids}
        if walk.views:
            for gid in group_ids:
                owner = walk.views.get(gid, static_map).group_of
                expected_states[gid] = {
                    key: value for key, value in single_copy.items()
                    if owner(key) == gid}
        else:  # every group ends at epoch 0: one lookup per key
            for key, value in single_copy.items():
                state = expected_states.get(group_of(key))
                if state is not None:
                    state[key] = value
        for gid in group_ids:
            skip = walk.pending_end.get(gid, set())
            expected_state = expected_states[gid]
            if skip:
                expected_state = {k: v for k, v in expected_state.items()
                                  if k not in skip}
            for pid in correct[gid]:
                got_state = cluster.stores[pid].state
                if skip:
                    got_state = {k: v for k, v in got_state.items()
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

    @staticmethod
    def _compare_effects(txn: Transaction, gids: List[int],
                         expected: TxnEffects,
                         replicas: Dict[int, List[Tuple[int, dict]]]
                         ) -> None:
        """Raise the first read or cas divergence of ``txn`` in op
        order, then replica order: each op's replay outcome against
        every replica of the group it was addressed to (``gids``)."""
        for index, op in enumerate(txn.ops):
            kind, key = op[0], op[1]
            if kind == "get":
                want = expected.reads.get(index)
            elif kind == "cas":
                want = expected.cas_applied.get(index)
            else:
                continue
            for pid, table in replicas[gids[index]]:
                observed = table.get(txn.txn_id)
                if observed is None:
                    continue
                if kind == "get":
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
                else:
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


#: An op's key.
_KEY = itemgetter(1)


def check_serializability(cluster) -> Tuple[str, ...]:
    """Post-hoc one-copy-serializability check over a finished run.

    Folds the per-replica execution journals (for static scenarios
    these equal the delivery logs; for elastic ones they additionally
    carry the reconfig/handoff markers and the effects of migration
    stalls) and runs the final checks; returns the global serial order
    on success.
    """
    checker = SerializabilityChecker(cluster.system.topology)
    checker.ingest_journals(cluster)
    return checker.finalize(cluster)


def serializability_replay(cluster) -> Dict[str, dict]:
    """Run :func:`check_serializability`'s whole check; returns the
    passing check's ``reconfig_replay``, which
    :func:`~repro.reconfig.checker.check_reconfig` compares the
    handoffs against."""
    checker = SerializabilityChecker(cluster.system.topology)
    checker.ingest_journals(cluster)
    checker.finalize(cluster)
    return checker.reconfig_replay
