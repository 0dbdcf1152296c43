"""The reconfiguration checker: migrations preserve the data invariants.

:func:`check_reconfig` verifies, over a finished elastic run, that the
online key-range migrations themselves behaved — complementing the
serializability checker (which proves the *data* stayed one-copy
serializable across the moves) with the reconfig-specific invariants:

1. **outcome agreement** — every correct participant (source and
   target replicas) that saw a reconfig through to an outcome reached
   the *same* outcome (completed everywhere or aborted everywhere;
   a source that shed while the target rolled back would strand keys);
2. **handoff fidelity** — each handoff's snapshot equals the one-copy
   replay's source state at the reconfig's serial position, and its
   abort flag equals the replay's authoritative CAS decision (the
   migrated state is exactly the state the source owned at R);
3. **no stale execution** — a replica that fenced a transaction
   (``WrongEpoch``) must not have executed any of the fenced ops: every
   rejection record is checked against the recorded per-op effects;
4. **unique ownership** — at the end of the run every surviving key is
   held by the replicas of exactly one partition, at one value (no key
   is duplicated across groups by a half-applied move, and none is
   left dangling at a shed source);
5. **no route outran its reconfig** — no replica ever received a
   transaction routed to it for a key whose move there it had not yet
   delivered (the ``outran`` journals are empty): the sessions' fence
   rule promises every such transaction arrives after R.

Unfinished reconfigs (an R whose H never landed because the designated
caster crashed) are *reported*, not flagged: safety holds — the moving
keys are simply unavailable, which the campaign metrics surface as
uncommitted transactions and ``keys_in_flight``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.reconfig.txn import move_seq
from repro.store.checker import correct_members, serializability_replay


class ReconfigViolation(AssertionError):
    """A migration broke a reconfiguration invariant.

    ``context`` carries machine-readable details (kind, reconfig id,
    pid, key) for the adversary explorer's structured records.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context: Dict[str, object] = context


def check_reconfig(cluster, replay: Optional[Dict[str, dict]] = None
                   ) -> Dict[str, object]:
    """Verify every migration of a finished run; returns a summary.

    The summary maps ``completed`` / ``aborted`` / ``unfinished`` to
    sorted reconfig-id lists and ``keys_in_flight`` to keys stranded by
    unfinished moves — the campaign's reconfig metrics read it.

    ``replay`` is the ``reconfig_replay`` of a serializability check
    that passed on this very cluster state; without one, the check runs
    that whole check itself first.
    """
    if replay is None:
        replay = serializability_replay(cluster)
    correct = correct_members(cluster)

    # ------------------------------------------------------------ 1 + 2
    ops = {}
    for store in cluster.stores.values():
        ops.update(store.initiated_reconfigs)
    completed: List[str] = []
    aborted: List[str] = []
    unfinished: List[str] = []
    in_flight: Set[str] = set()
    for rid in sorted(ops, key=move_seq):
        op = ops[rid]
        outcomes: Dict[int, str] = {}
        for gid in (op.src, op.dst):
            for pid in correct[gid]:
                store = cluster.stores[pid]
                if rid not in store.initiated_reconfigs:
                    continue  # R never reached this replica (it may
                    # have crashed and recovered out of scope)
                if rid in store.completed_reconfigs:
                    outcomes[pid] = "completed"
                elif rid in store.aborted_reconfigs:
                    outcomes[pid] = "aborted"
                else:
                    outcomes[pid] = "unfinished"
        decided = {o for o in outcomes.values() if o != "unfinished"}
        if len(decided) > 1:
            raise ReconfigViolation(
                f"reconfig {rid} ended split-brain: {outcomes} — some "
                f"correct participants completed the move while others "
                f"aborted it",
                kind="outcome_split", reconfig_id=rid,
                outcomes=dict(sorted(outcomes.items())),
            )
        verdict = next(iter(decided), "unfinished")
        if verdict == "completed":
            completed.append(rid)
        elif verdict == "aborted":
            aborted.append(rid)
        else:
            unfinished.append(rid)
            in_flight.update(op.keys)
        expected = replay.get(rid)
        if expected is not None and verdict != "unfinished":
            want = "completed" if expected["proceeded"] else "aborted"
            if verdict != want:
                raise ReconfigViolation(
                    f"reconfig {rid} {verdict} in the run, but the "
                    f"one-copy replay's authoritative CAS says it "
                    f"should have {want}",
                    kind="cas_divergence", reconfig_id=rid,
                    run=verdict, replay=want,
                )
        for store in cluster.stores.values():
            h = store.handoffs.get(rid)
            if h is None or expected is None:
                continue
            if h.aborted == expected["proceeded"]:
                raise ReconfigViolation(
                    f"handoff for {rid} carries aborted={h.aborted}, "
                    f"but the replay's CAS decision is "
                    f"proceeded={expected['proceeded']}",
                    kind="handoff_outcome", reconfig_id=rid,
                )
            if not h.aborted and tuple(h.snapshot) != expected["snapshot"]:
                raise ReconfigViolation(
                    f"handoff for {rid} migrated "
                    f"{dict(h.snapshot)!r}, but the source's one-copy "
                    f"state at R was {dict(expected['snapshot'])!r} — "
                    f"the move lost or invented data",
                    kind="snapshot_divergence", reconfig_id=rid,
                    got=tuple(h.snapshot), want=expected["snapshot"],
                )

    # -------------------------------------------------------------- 3
    for pid in sorted(cluster.stores):
        store = cluster.stores[pid]
        if (cluster.system.network.process(pid).crashed
                or not store.rejections):
            continue
        # journal item id -> its first item (a control's id is "@rid").
        applied = dict(zip(reversed(store.applied),
                           reversed(store.applied_txns)))
        for rejection in store.rejections:
            effects = store.effects_of(rejection["txn_id"])
            if effects is None:
                continue
            txn = applied.get(rejection["txn_id"])
            if txn is None:
                continue
            for index, op in enumerate(txn.ops):
                if op[1] not in rejection["keys"]:
                    continue
                if (index in effects.reads
                        or index in effects.cas_applied):
                    raise ReconfigViolation(
                        f"stale execution: replica {pid} fenced "
                        f"{txn.txn_id}'s op on {op[1]!r} (WrongEpoch) "
                        f"yet recorded effects for it — the op ran "
                        f"against a map epoch the replica no longer "
                        f"owned",
                        kind="stale_execution", pid=pid,
                        txn=txn.txn_id, key=op[1], op_index=index,
                    )

    # -------------------------------------------------------------- 4
    holders: Dict[str, Dict[int, Set]] = {}
    for gid in cluster.system.topology.group_ids:
        for pid in correct[gid]:
            for key, value in cluster.stores[pid].state.items():
                holders.setdefault(key, {}).setdefault(
                    gid, set()).add(repr(value))
    for key in sorted(holders):
        by_group = holders[key]
        if len(by_group) > 1:
            raise ReconfigViolation(
                f"key {key!r} is held by replicas of "
                f"{sorted(by_group)} — a migration left it owned by "
                f"more than one partition",
                kind="duplicate_ownership", key=key,
                groups=sorted(by_group),
            )

    # -------------------------------------------------------------- 5
    for pid in sorted(cluster.stores):
        for txn_id, key in cluster.stores[pid].outran.items():
            raise ReconfigViolation(
                f"route outran the reconfig: {txn_id} reached replica "
                f"{pid} routed there for {key!r} before the move that "
                f"brings the key in — it is ordered before R, not after",
                kind="route_outran", pid=pid, txn=txn_id, key=key,
            )

    keys_moved = sorted({k for rid in completed for k in ops[rid].keys})
    return {
        "completed": completed,
        "aborted": aborted,
        "unfinished": unfinished,
        "keys_in_flight": sorted(in_flight),
        "keys_moved": keys_moved,
    }
