"""The load balancer: commit-rate-driven key-range migration.

:class:`LoadBalancer` is the controller of the elastic repartitioning
loop.  It ticks on a fixed virtual-time period, reads per-key demand
heat from the shared :class:`~repro.store.client.CommitTracker`'s
issue journal (the balancer reacts to *observed* client traffic,
never to the workload spec),
and when the hottest data group's load exceeds the coldest's by more
than ``threshold``×, it multicasts a :class:`~repro.reconfig.txn.
ReconfigOp` moving the hottest keys — through the same atomic
multicast as every data transaction, via the lowest-pid correct
replica of the *source* group, so the decision's effect has a
totally-ordered position and the submitter is guaranteed to observe
both R and H.

One migration is in flight at a time: a tick while the previous
reconfig is unfinished at any correct participant is a no-op.  The
controller draws no randomness — ties break on group id and key name —
so a (spec, seed) pair replays bit-identically with or without a
campaign harness around it.

Two modes:

* ``split`` — shed up to ``max_keys`` of the hottest group's keys to
  the coldest group, hottest first, but only while each move strictly
  improves the pairwise balance (the skew chaser; the strict-improve
  rule is what keeps one indivisibly-hot key from ping-ponging);
* ``merge`` — fold the coldest group's entire (observed) key set into
  the second-coldest group (the consolidator for near-idle groups).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.reconfig.txn import ReconfigOp

#: Balancing strategies.
MODES = ("split", "merge")


class LoadBalancer:
    """Watches commit heat and triggers migrations through the order."""

    def __init__(self, cluster, interval: float,
                 threshold: float = 2.0, max_keys: int = 8,
                 mode: str = "split") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; have {list(MODES)}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if threshold < 1.0:
            raise ValueError(
                f"threshold must be >= 1.0, got {threshold!r}"
            )
        if max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys!r}")
        self.cluster = cluster
        self.interval = interval
        self.threshold = threshold
        self.max_keys = max_keys
        self.mode = mode
        self._seq = 0
        self._heat_index = 0
        self._outstanding: Optional[ReconfigOp] = None
        #: ids of completed migrations announced to the client sessions.
        self.pushed: List[str] = []
        #: (tick time, reconfig id, src, dst, keys) per initiated move.
        self.migrations: List[Tuple[float, str, int, int, tuple]] = []
        #: ticks skipped because a migration was still in flight.
        self.ticks_blocked = 0
        self.ticks = 0

    @property
    def pushes(self) -> int:
        return len(self.pushed)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, start: float, horizon: float) -> None:
        """Schedule ticks every ``interval`` over (start, horizon]."""
        sim = self.cluster.system.sim
        t = start + self.interval
        while t <= horizon:
            sim.call_at(t, self._tick, label=f"rebalance@{t:g}")
            t += self.interval

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------
    def _correct_members(self, gid: int) -> List[int]:
        network = self.cluster.system.network
        return [pid for pid in self.cluster.system.topology.members(gid)
                if not network.process(pid).crashed]

    def _finished(self, op: ReconfigOp) -> bool:
        """Has every correct participant seen the reconfig's outcome?"""
        for gid in (op.src, op.dst):
            for pid in self._correct_members(gid):
                if not self.cluster.stores[pid].reconfig_finished(
                        op.reconfig_id):
                    return False
        return True

    def _push_completed(self, op: ReconfigOp) -> None:
        """Announce a completed migration to every live client session.

        The bounce path teaches a client about a move only when one of
        its transactions trips over the fence, so every (client, moved
        key) pair pays a rejected leg plus a residue round-trip.  A
        placement driver can do better: once every correct participant
        has the outcome, push the new owner to all sessions.  Every
        correct replica of the new owner has then executed R and H, so
        whatever a session casts after the push is delivered there
        after R and needs no fence leg; the push retires the one a
        bounce may have armed.  Transactions already in flight across
        the window still bounce; that path stays load-bearing.
        """
        completed = any(
            op.reconfig_id in self.cluster.stores[pid].completed_reconfigs
            for gid in (op.src, op.dst)
            for pid in self._correct_members(gid))
        if not completed:
            return  # aborted: ownership did not change, nothing to teach
        for client in self.cluster.clients.values():
            if client.store.process.crashed:
                continue
            for key in op.keys:
                client.learn(key, op.dst, op.reconfig_id)
        self.pushed.append(op.reconfig_id)

    def _heat_window(self) -> Dict[str, int]:
        """Per-key demand counts since the previous tick.

        Reads the tracker's *issue* journal, not its commit journal: a
        saturated partition commits at most 1/service_time transactions
        per unit time no matter how many are queued, so commit heat
        understates exactly the partitions that need relief, and a
        commit-driven balancer starves itself of its trigger signal.
        Issue heat measures offered load wherever the queue stands.
        """
        journal = self.cluster.tracker.key_issues
        heat: Dict[str, int] = {}
        for _, keys in journal[self._heat_index:]:
            for key in keys:
                heat[key] = heat.get(key, 0) + 1
        self._heat_index = len(journal)
        return heat

    def _views(self) -> Dict[int, object]:
        """Per-group map views for load attribution.

        A key is attributed to the group whose *own* view claims it: a
        group's view of its own holdings is always current (every move
        in or out of a group is delivered to it), while its view of
        keys moving between *other* groups goes stale — so ownership
        questions are always put to the claimant, never to a bystander.
        """
        views: Dict[int, object] = {}
        for gid in self.cluster.data_gids:
            members = self._correct_members(gid)
            if members:
                views[gid] = self.cluster.stores[min(members)].partition_map
        return views

    def _tick(self) -> None:
        self.ticks += 1
        if self._outstanding is not None:
            if not self._finished(self._outstanding):
                self.ticks_blocked += 1
                return
            done, self._outstanding = self._outstanding, None
            self._push_completed(done)
        heat = self._heat_window()
        if not heat:
            return
        views = self._views()
        gids = sorted(views)
        if len(gids) < 2:
            return
        load = {g: 0 for g in gids}
        owner_of: Dict[str, int] = {}
        for key, count in heat.items():
            gid = next((g for g in gids
                        if views[g].group_of(key) == g), None)
            if gid is not None:
                load[gid] += count
                owner_of[key] = gid
        hot = max(gids, key=lambda g: (load[g], -g))
        cold = min(gids, key=lambda g: (load[g], g))
        if load[hot] == 0 or hot == cold:
            return
        if load[cold] > 0 and load[hot] / load[cold] < self.threshold:
            return
        if self.mode == "split":
            # Greedy split: shed hottest-first, but only while the move
            # strictly improves the pairwise balance — otherwise the
            # whole hot set lands on the coldest group, which becomes
            # the new hottest, and the same keys ping-pong forever.
            src, dst = hot, cold
            src_load, dst_load = float(load[src]), float(load[dst])
            candidates: List[str] = []
            for key in sorted((k for k, g in owner_of.items() if g == src),
                              key=lambda k: (-heat[k], k)):
                if len(candidates) >= self.max_keys:
                    break
                if dst_load + heat[key] < src_load:
                    candidates.append(key)
                    src_load -= heat[key]
                    dst_load += heat[key]
        else:
            second = min((g for g in gids if g != cold),
                         key=lambda g: (load[g], g))
            src, dst = cold, second
            candidates = sorted(k for k, g in owner_of.items() if g == src)
        if not candidates:
            return
        submitter_pids = self._correct_members(src)
        if not submitter_pids:
            return
        self._seq += 1
        op = ReconfigOp(reconfig_id=f"rc{self._seq:05d}", src=src,
                        dst=dst, keys=tuple(sorted(candidates)))
        self.cluster.stores[min(submitter_pids)].submit_reconfig(op)
        self._outstanding = op
        self.migrations.append(
            (self.cluster.system.sim.now, op.reconfig_id, src, dst,
             op.keys))
