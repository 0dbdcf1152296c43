"""Client sessions and commit-latency accounting (simulated time).

A :class:`StoreClient` is the request layer: it owns a session against
one replica, stamps each submitted transaction with its issue time, and
asks the shared :class:`CommitTracker` to watch for the commit point.

**Commit point.**  A one-shot transaction is *committed* at the first
virtual instant by which every destination partition has executed it at
at least one replica — from then on its position in the global serial
order is fixed everywhere its data lives, and a read served by any of
those partitions reflects it.  The tracker observes per-replica
*execution* notifications, because execution can lag delivery behind
service queues and migrations (a static replica executes inside the
A-Deliver itself) — and a transaction fenced with ``WrongEpoch`` only
commits once the residue transaction carrying its bounced ops commits
too, so the recorded latency spans the whole retry.

The tracker also journals per-key issue heat (``key_issues``), which
is the :class:`~repro.reconfig.balancer.LoadBalancer`'s only input —
the balancer reacts to observed demand, not to the workload spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.interfaces import AppMessage
from repro.reconfig.txn import move_seq
from repro.store.service import TransactionalStore
from repro.store.transaction import Transaction


class _Entry:
    """Book-keeping for one in-flight transaction."""

    __slots__ = ("issue", "remaining", "keys", "parent",
                 "open_residues", "awaiting")

    def __init__(self, issue: float, remaining: Set[int], keys: tuple,
                 parent: Optional[str]) -> None:
        self.issue = issue
        self.remaining = remaining
        self.keys = keys
        self.parent = parent
        #: residue txn ids spawned for this txn, not yet committed.
        self.open_residues: Set[str] = set()
        #: bounces received for which no residue has registered yet.
        self.awaiting = 0


class CommitTracker:
    """Watches replica executions, records commit latency and heat."""

    def __init__(self, system) -> None:
        self._system = system
        self._topology = system.topology
        self._pending: Dict[str, _Entry] = {}
        #: txn id -> (issue time, commit time), commit order.
        self.committed: Dict[str, Tuple[float, float]] = {}
        #: txn id -> parent txn id, for residue transactions.
        self.parents: Dict[str, str] = {}
        #: (issue time, keys) per registered txn, issue order — the
        #: demand signal.  Under saturation a queued partition's commit
        #: rate is capped at 1/service_time, so commit heat understates
        #: exactly the partitions that need relief; issue heat doesn't.
        self.key_issues: List[Tuple[float, tuple]] = []
        #: (txn id, gid) pairs that bounced with WrongEpoch.
        self.bounces: Set[Tuple[str, int]] = set()

    def register(self, txn_id: str, dest_groups, issue_time: float,
                 keys: tuple = (), parent: Optional[str] = None) -> None:
        if txn_id in self._pending or txn_id in self.committed:
            raise ValueError(f"transaction {txn_id!r} already tracked")
        entry = _Entry(issue_time, set(dest_groups), tuple(keys), parent)
        self._pending[txn_id] = entry
        self.key_issues.append((issue_time, entry.keys))
        if parent is not None:
            self.parents[txn_id] = parent
            up = self._pending.get(parent)
            if up is not None:
                up.open_residues.add(txn_id)
                up.awaiting = max(up.awaiting - 1, 0)

    # ------------------------------------------------------------------
    # Observation surfaces
    # ------------------------------------------------------------------
    def on_executed(self, pid: int, txn_id: str) -> None:
        """A replica executed the transaction."""
        entry = self._pending.get(txn_id)
        if entry is None:
            return
        entry.remaining.discard(self._topology.group_of(pid))
        self._maybe_commit(txn_id)

    def on_rejected(self, txn_id: str, gid: int, keys: tuple) -> None:
        """Group ``gid`` fenced the transaction: hold the commit until
        a residue covering the bounced ops registers and commits."""
        if (txn_id, gid) in self.bounces:
            return  # every replica of the group reports the same fence
        self.bounces.add((txn_id, gid))
        entry = self._pending.get(txn_id)
        if entry is not None:
            entry.awaiting += 1

    def _maybe_commit(self, txn_id: str) -> None:
        entry = self._pending.get(txn_id)
        if entry is None:
            return
        if entry.remaining or entry.awaiting or entry.open_residues:
            return
        del self._pending[txn_id]
        self.committed[txn_id] = (entry.issue, self._system.sim.now)
        if entry.parent is not None:
            up = self._pending.get(entry.parent)
            if up is not None:
                up.open_residues.discard(txn_id)
                self._maybe_commit(entry.parent)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        """Commit latency of every committed *original* transaction
        (residues fold into their parent's latency), commit order."""
        return [commit - issue
                for txn_id, (issue, commit) in self.committed.items()
                if txn_id not in self.parents]

    def committed_originals(self) -> List[str]:
        """Committed transactions that are not residues."""
        return [txn_id for txn_id in self.committed
                if txn_id not in self.parents]

    def uncommitted(self) -> List[str]:
        """Transactions issued but never fully covered (e.g. crashes)."""
        return sorted(self._pending)

    def commit_span(self) -> Optional[Tuple[float, float]]:
        """(first issue, last commit) across committed transactions."""
        if not self.committed:
            return None
        return (min(issue for issue, _ in self.committed.values()),
                max(commit for _, commit in self.committed.values()))


class StoreClient:
    """One client session, bound to a replica of the serving layer."""

    def __init__(self, store: TransactionalStore,
                 tracker: Optional[CommitTracker] = None,
                 tag_routes: bool = False,
                 max_retries: int = 5) -> None:
        self.store = store
        self.tracker = tracker
        #: Stamp per-key routes on submitted transactions (elastic
        #: deployments need them for epoch fencing).
        self.tag_routes = tag_routes
        self.max_retries = max_retries
        #: Transactions this session issued, in issue order.
        self.issued: List[str] = []
        #: Learned ownership: key -> owner, from bounces and pushes.
        self.overrides: Dict[str, int] = {}
        #: key -> id of the newest move of it this session has learned
        #: (newest by :func:`~repro.reconfig.txn.move_seq`).
        self.learned: Dict[str, str] = {}
        #: Epoch fence leg: key -> {the group that bounced it}, kept
        #: from the bounce until the same move is pushed.  A txn that
        #: executes the key at new owner h is serialised after every
        #: old-epoch txn iff h delivers it after R, the move's
        #: ReconfigOp.  A bounce at g proves only that *g* delivered R;
        #: a residue also addressed to g shares both of R's
        #: destinations, g delivered R first, so by uniform prefix
        #: order h does too.  g executes no ops — the routes name h.
        self.fences: Dict[str, Set[int]] = {}
        self._handled_bounces: Set[Tuple[str, int]] = set()
        self._retries: Dict[str, int] = {}
        self._residue_seq = 0
        #: Residues this client gave up on (retry budget exhausted).
        self.abandoned: List[str] = []

    @property
    def pid(self) -> int:
        return self.store.process.pid

    def _route_of(self, key: str) -> int:
        if key in self.overrides:
            return self.overrides[key]
        return self.store.partition_map.group_of(key)

    def submit(self, txn_id: str, ops,
               parent: Optional[str] = None) -> AppMessage:
        """Issue a one-shot transaction now; returns the cast message."""
        # A plan's ops (a tuple of tuples) are kept as they are.
        if not (type(ops) is tuple and all(type(op) is tuple for op in ops)):
            ops = tuple(tuple(op) for op in ops)
        routes = None
        if self.tag_routes:
            seen: Dict[str, int] = {}
            for op in ops:
                seen.setdefault(op[1], self._route_of(op[1]))
            routes = tuple(sorted(seen.items()))
        txn = Transaction(txn_id=txn_id, client=self.pid, ops=ops,
                          routes=routes)
        if self.store.routing == "broadcast":
            dest = self.store.destinations_of(txn)
        elif routes is not None:
            gids = {gid for _, gid in routes}
            for key, _ in routes:
                gids.update(self.fences.get(key, ()))
            dest = tuple(sorted(gids))
        else:
            dest = self.store.destinations_of(txn)
        if self.tracker is not None:
            self.tracker.register(
                txn.txn_id, dest,
                issue_time=self.store.process.sim.now,
                keys=txn.keys(), parent=parent,
            )
        self.issued.append(txn.txn_id)
        return self.store.submit(txn, dest=dest)

    def _learned_seq(self, key: str) -> int:
        return move_seq(self.learned[key]) if key in self.learned else -1

    def learn(self, key: str, owner: int, reconfig_id: str) -> None:
        """Accept a pushed move (placement-driver style).

        The balancer pushes only once every correct replica of both
        groups has executed the handoff, so whatever this session casts
        from now on is delivered at ``owner`` after R: no leg is needed.
        """
        if move_seq(reconfig_id) >= self._learned_seq(key):
            self.learned[key] = reconfig_id
            self.overrides[key] = owner
            self.fences.pop(key, None)

    def inv(self) -> None:
        """Fence state, checkable at any event boundary: at most one
        leg per key, armed by a bounce, never at the key's own route."""
        for key, legs in self.fences.items():
            assert len(legs) == 1 and key in self.learned, (key, legs)
            assert self.overrides[key] not in legs, (key, legs)

    def on_wrong_epoch(self, txn_id: str, gid: int, bounced: tuple,
                       updates: Dict[str, Tuple[int, str]]) -> None:
        """A replica fenced our transaction: retry the bounced ops as a
        residue transaction.  ``updates`` names, per key, the new owner
        and the move that shed it; only a move newer than what the
        session knows reroutes the key and arms the leg at ``gid`` — a
        stale notice leaves the (newer) route and adds none."""
        for key, (owner, reconfig_id) in updates.items():
            if move_seq(reconfig_id) > self._learned_seq(key):
                self.learned[key] = reconfig_id
                self.overrides[key] = owner
                self.fences[key] = {gid}
        if (txn_id, gid) in self._handled_bounces:
            return  # every replica of the group sends the same notice
        self._handled_bounces.add((txn_id, gid))
        base = txn_id.split("~r", 1)[0]
        attempt = self._retries.get(base, 0) + 1
        self._retries[base] = attempt
        if attempt > self.max_retries:
            self.abandoned.append(txn_id)
            return
        txn = self.store.txns.get(txn_id)
        residue_ops = tuple(op for op in (txn.ops if txn else ())
                            if op[1] in bounced)
        if not residue_ops:
            return
        self._residue_seq += 1
        residue_id = f"{base}~r{self._residue_seq}"
        self.submit(residue_id, residue_ops, parent=txn_id)
