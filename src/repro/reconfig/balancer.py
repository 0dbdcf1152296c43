"""The load balancer: demand-driven key-range migration.

:class:`LoadBalancer` is the controller of the elastic repartitioning
loop.  It ticks on a fixed virtual-time period, folds the shared
:class:`~repro.store.client.CommitTracker`'s issue journal into an
exponentially decayed per-key heat (the balancer reacts to *observed*
client traffic, never to the workload spec), and when the hottest data
group's load exceeds the coldest's by more than ``threshold``×, it
multicasts a :class:`~repro.reconfig.txn.ReconfigOp` moving the hottest
keys — through the same atomic multicast as every data transaction,
via the lowest-pid correct replica of the *source* group, so the
decision's effect has a totally-ordered position and the submitter is
guaranteed to observe both R and H.

**Hysteresis.**  One tick's window holds a dozen or so issues: decided
on alone, a different group looks coldest at every tick and a hot key
follows it around.  Decayed heat averages that noise away; the hot/cold
ratio does not depend on scale, so a first tick decides as one window.

One migration is in flight at a time: a tick while the previous
reconfig is unfinished at any correct participant is a no-op.  The
controller draws no randomness — ties break on group id and key name —
so a (spec, seed) pair replays bit-identically with or without a
campaign harness around it.

A decision sheds up to ``max_keys`` of the hottest group's keys to the
coldest group, hottest first, but only while each move strictly
improves the pairwise balance — within one decision this keeps the
whole hot set from landing on one group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.reconfig.txn import ReconfigOp

#: Per-tick decay of the per-key heat (half-life ≈ 3 ticks); the measured
#: curve is in README "Elastic repartitioning".
HEAT_DECAY = 0.8
#: Heat below this is forgotten (one issue, after 93 quiet ticks).  A
#: higher floor zeroes groups of lukewarm keys, and hot keys chase them.
_FORGET = 1e-9


def tick_times(start: float, horizon: float,
               interval: float) -> List[float]:
    """Tick instants every ``interval`` over (start, horizon]."""
    ticks = []
    t = start + interval
    while t <= horizon:
        ticks.append(t)
        t += interval
    return ticks


class LoadBalancer:
    """Watches demand heat and triggers migrations through the order."""

    def __init__(self, cluster, interval: float,
                 threshold: float = 2.0, max_keys: int = 8) -> None:
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
        self._seq = 0
        self._heat_index = 0
        #: key -> decayed demand heat (see :meth:`_fold_heat`).
        self.heat: Dict[str, float] = {}
        self._owner_of: Dict[str, int] = {}  # attribution at the last tick
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
        ticks = tick_times(start, horizon, self.interval)
        self.cluster.system.sim.call_at_each(
            ticks, lambda _t: self._tick(), ticks)

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

    def _fold_heat(self) -> None:
        """Decay every key's heat by :data:`HEAT_DECAY` and add the
        issues since the previous tick.

        Heat counts issues (the tracker's ``key_issues``), not commits:
        a saturated partition commits at most 1/service_time
        transactions per unit time no matter how many are queued, so
        commit heat would understate exactly the partitions that need
        relief, and a commit-driven balancer would starve itself of its
        trigger signal.  Issue heat measures offered load wherever the
        queue stands.
        """
        self.heat = heat = {k: v * HEAT_DECAY for k, v in self.heat.items()
                            if v * HEAT_DECAY >= _FORGET}
        journal = self.cluster.tracker.key_issues
        for _, keys in journal[self._heat_index:]:
            for key in keys:
                heat[key] = heat.get(key, 0.0) + 1.0
        self._heat_index = len(journal)

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
        self._fold_heat()
        if self._outstanding is not None:
            if not self._finished(self._outstanding):
                self.ticks_blocked += 1
                return
            done, self._outstanding = self._outstanding, None
            self._push_completed(done)
        heat = self.heat
        if not heat:
            return
        views = self._views()
        gids = sorted(views)
        if len(gids) < 2:
            return
        # O(keys): ask last tick's claimant, scan only if it disowns.
        load = {g: 0.0 for g in gids}
        owner_of: Dict[str, int] = {}
        for key, value in heat.items():
            gid = self._owner_of.get(key)
            if gid not in views or views[gid].group_of(key) != gid:
                gid = next((g for g in gids
                            if views[g].group_of(key) == g), None)
            if gid is not None:
                load[gid] += value
                owner_of[key] = gid
        self._owner_of = owner_of
        hot = max(gids, key=lambda g: (load[g], -g))
        cold = min(gids, key=lambda g: (load[g], g))
        if load[hot] == 0 or hot == cold:
            return
        if load[cold] > 0 and load[hot] / load[cold] < self.threshold:
            return
        # Greedy split: shed hottest-first, but only while the move
        # strictly improves the pairwise balance — otherwise the whole
        # hot set lands on the coldest group, which becomes the new
        # hottest.  Across ticks, decayed heat keeps keys put.
        src, dst = hot, cold
        src_load, dst_load = load[src], load[dst]
        candidates: List[str] = []
        for key in sorted((k for k, g in owner_of.items() if g == src),
                          key=lambda k: (-heat[k], k)):
            if len(candidates) >= self.max_keys:
                break
            if dst_load + heat[key] < src_load:
                candidates.append(key)
                src_load -= heat[key]
                dst_load += heat[key]
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
