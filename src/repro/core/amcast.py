"""Algorithm A1 — genuine atomic multicast with optimal latency degree 2.

Faithful implementation of the paper's Algorithm A1 (Section 4).  Every
multicast message walks the stage machine s0..s3:

* **s0** — each destination group runs (intra-group) consensus to agree
  on its timestamp proposal for the message;
* **s1** — destination groups exchange proposals; the final timestamp is
  the maximum;
* **s2** — a group whose proposal was below the maximum runs another
  consensus to push its clock past the final timestamp;
* **s3** — the message is A-Delivered once its (timestamp, id) pair is
  minimal among all pending messages — here: once no pending message
  can still *finish* below it (third engine note).

The two optimisations over Fritzke et al. [5] (paper Section 4.1):

1. messages addressed to a *single* group jump s0 → s3 (lines 28-29);
2. a group whose proposal equals the maximum skips s2 (line 35-36).

Set ``enable_stage_skipping=False`` to disable both — the ablation
benchmark uses this to measure what the optimisation saves.

Genuineness: only processes in ``m.dest_groups`` (plus the caster, which
sends the initial reliable multicast) ever handle messages concerning m.

Engine notes (protocol semantics unchanged):

* consensus values and (TS, m) payloads carry interned mids resolved
  against the per-simulation :class:`MessageCatalog`, not encoded
  message bodies;
* the A-Delivery test never scans PENDING: entries whose final
  timestamp is known (s2, s3) sit in one lazy-deletion heap keyed on
  ``(ts, mid)``, s1 entries in two small heaps per remote group
  (:class:`_AwaitedGroup`) — O(log n) per delivery.  Snapshots are
  validated against the live entry, so leaving a stage needs no heap
  surgery;
* the delivery guard compares the minimal s3 pair ``(T, mid)`` with a
  *lower bound* on what each pending message can still finish at, not
  with the timestamp it carries today.  Waiting behind every smaller
  own-group proposal (lines 3-7 read literally) costs a third
  inter-group hop as soon as casts overlap; the bounds cost nothing and
  release the same sequence at 2δ plus the skew between group clocks:

  - an **s0** entry will be proposed in an instance >= K, and K > T for
    every s3 entry (line 31) — it never blocks;
  - an **s1** entry finishes at the maximum of all proposals: at least
    our own, and for every destination group whose proposal is still
    missing at least that group's clock *watermark*.  Each (TS, m) copy
    carries its rank among the copies its sender addressed to our
    group.  Agreement makes every member of a group process the same
    decisions in the same order, so all members number identically —
    their copies of rank n carry the same (m, instance) — and we keep
    one stream per *group*: the highest rank reached without a gap,
    whichever member's copy filled each rank, and the instance it
    carried (the watermark).  A proposal of that group not yet
    received ranks above the gap-free prefix, and the group stamps in
    instance order, so it is an instance >= the watermark;
  - an **s2** entry blocks by its final ``(ts, mid)``, and a message
    not yet in PENDING will enter at s0 — the paper's own argument.

  Arrival order is never used: the links promise none (§2.1), and
  "highest instance seen from group g" is wrong the moment one copy
  overtakes another.  Timestamps, K, consensus values and every message
  are what the literal guard produces; only the delivery instants move.
* the paper's ADELIVERED set is not kept: what it answers is held only
  while an answer can still be asked.  ``_heard`` holds the messages
  R-Delivered here and not yet A-Delivered, ``_unheard`` those
  A-Delivered before their own R-Deliver arrived (reliable multicast
  delivers each cast once, so that R-Deliver drops the entry).  A late
  (TS, m) copy is recognised by its rank — the group's stream knows
  whether that rank was seen — and ``_late_ts[m]`` names the groups
  whose proposal had not arrived here when m's final timestamp did,
  with another member's s2 decision (the only way m reaches s3, hence
  delivery, without every proposal); the first copy of that rank clears
  the group.  No decision needs filtering: see :meth:`_on_decided`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.consensus.paxos import GroupConsensus
from repro.consensus.sequence import ConsensusSequence
from repro.core.interfaces import (
    STAGE_S0,
    STAGE_S1,
    STAGE_S2,
    STAGE_S3,
    AppMessage,
    AtomicMulticast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.topology import Topology
from repro.rmcast.reliable import ReliableMulticast
from repro.sim.process import Process


class _Pending:
    """One entry of the PENDING set (paper's message fields)."""

    __slots__ = ("msg", "ts", "stage", "awaits")

    def __init__(self, msg: AppMessage, ts: int, stage: int) -> None:
        self.msg = msg
        self.ts = ts
        self.stage = stage
        # While at s1: the missing group whose clock bounds this entry
        # in the delivery guard (see _AwaitedGroup).
        self.awaits: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Pending({self.msg.mid} ts={self.ts} s{self.stage})"


class _Stream:
    """What one remote group's (TS, m) copies prove about its clock.

    Every member of the group numbers the copies it addresses to our
    group 1, 2, 3, ... in decision order, so rank n is the same
    (m, instance) whichever member sent it, and instances do not
    decrease with rank.  Links promise no order, so only the
    *contiguous* prefix of ranks received counts: every proposal of the
    group still missing here has a larger rank, hence an instance >=
    the one rank :attr:`seq` carried (the group's watermark).  Ranks
    past a gap wait in :attr:`ahead` (rank -> instance) until any
    member's copy closes the gap — under loss a rank is missing only
    while all the members' copies of it are.
    """

    __slots__ = ("seq", "ahead")

    def __init__(self) -> None:
        self.seq = 0
        self.ahead: Dict[int, int] = {}


class _AwaitedGroup:
    """One remote group: its clock watermark and the s1 entries under it.

    :attr:`watermark` is the instance the group's gap-free
    :class:`_Stream` has reached: a proposal of this group that no
    member's copy has brought yet is an instance >= it.  An s1 entry
    missing this group's proposal therefore finishes at or above both
    its own group's proposal and the watermark.  Entries whose proposal
    is above the watermark sit in :attr:`ahead`, keyed ``(proposal,
    mid)``; the watermark overtakes each entry once and moves it to
    :attr:`behind`, keyed by ``mid`` alone because all of them are
    bounded by ``(watermark, mid)``.  Both are lazy-deletion heaps: a
    snapshot is dead once the entry left s1 or was re-homed under
    another missing group (``entry.awaits``).
    """

    __slots__ = ("gid", "watermark", "stream", "ahead", "behind")

    def __init__(self, gid: int) -> None:
        self.gid = gid
        self.watermark = 0
        self.stream = _Stream()
        self.ahead: List[Tuple[int, str]] = []
        self.behind: List[str] = []

    def observe(self, seq: int, instance: int) -> bool:
        """Count one (TS, m) copy of rank ``seq``, from any member; True
        iff the watermark rose."""
        stream = self.stream
        if seq != stream.seq + 1:
            if seq > stream.seq:
                stream.ahead[seq] = instance
            return False  # past a gap, or a rank another copy brought
        held = stream.ahead
        while held and seq + 1 in held:  # the gap closed: catch up
            seq += 1
            instance = held.pop(seq)
        stream.seq = seq
        if instance <= self.watermark:
            return False
        self.watermark = instance
        ahead = self.ahead
        while ahead and ahead[0][0] <= instance:
            heapq.heappush(self.behind, heapq.heappop(ahead)[1])
        return True

    def add(self, proposal: int, mid: str) -> None:
        if proposal > self.watermark:
            heapq.heappush(self.ahead, (proposal, mid))
        else:
            heapq.heappush(self.behind, mid)

    def floor(self, pending: Dict[str, _Pending],
              ) -> Optional[Tuple[int, str]]:
        """Smallest ``(bound, mid)`` any live entry here can finish at."""
        gid = self.gid
        behind = self.behind
        while behind:
            entry = pending.get(behind[0])
            if (entry is not None and entry.stage == STAGE_S1
                    and entry.awaits == gid):
                return self.watermark, behind[0]
            heapq.heappop(behind)
        ahead = self.ahead
        while ahead:
            entry = pending.get(ahead[0][1])
            if (entry is not None and entry.stage == STAGE_S1
                    and entry.awaits == gid):
                return ahead[0]
            heapq.heappop(ahead)
        return None


class Blocker(NamedTuple):
    """What the minimal s3 message of one endpoint is waiting on."""

    #: The minimal s3 message and its final timestamp — the stamp the
    #: blocker's bound must pass.
    waiting: str
    stamp: int
    #: The pending message that may still finish below it, its stage and
    #: the lower bound on its final timestamp.
    mid: str
    stage: int
    bound: int
    #: For an s1 blocker: the group whose proposal is missing and that
    #: group's clock watermark here.  ``None`` for an s2 blocker.
    group: Optional[int] = None
    watermark: Optional[int] = None

    def describe(self) -> str:
        """One line for :func:`repro.tools.render_waits`."""
        line = (f"{self.waiting} (ts={self.stamp}) waits on "
                f"{self.mid} in s{self.stage}, final >= {self.bound}")
        if self.group is not None:
            line += (f": group {self.group}'s proposal is missing and its "
                     f"clock is known up to {self.watermark}")
        return line


class AtomicMulticastA1(AtomicMulticast):
    """One process's endpoint of Algorithm A1."""

    #: Reliable multicast flavour; Fritzke et al. [5] swaps in the
    #: uniform variant (paper Section 4.1, first difference from [5]).
    RMCAST_CLS = ReliableMulticast
    #: What :func:`repro.tools.render_waits` prints when
    #: :meth:`blocked_on` is None.
    NOTHING_WAITS = "nothing waits in s3"

    def __init__(
        self,
        process: Process,
        topology: Topology,
        detector: FailureDetector,
        retry_timeout: float = 50.0,
        relay_after: float = 20.0,
        enable_stage_skipping: bool = True,
        namespace: str = "amc",
    ) -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.enable_stage_skipping = enable_stage_skipping
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)
        self._records = self.catalog.record_map

        # Paper line 2: K=1, propK=1, PENDING and ADELIVERED empty (of
        # ADELIVERED only what the fourth engine note says is kept).
        self.prop_k = 1
        self.pending: Dict[str, _Pending] = {}
        # The delivery guard's indexes (third engine note): entries whose
        # final timestamp is known (s2, s3) as a lazy-deletion heap of
        # (ts, mid) snapshots; per remote group, its clock watermark and
        # the s1 entries missing its proposal.
        self._finals: List[Tuple[int, str]] = []
        self._awaited: Dict[int, _AwaitedGroup] = {
            gid: _AwaitedGroup(gid) for gid in topology.group_ids
            if gid != self.my_gid}
        # Entries at stage s0/s2 — the ones the next consensus proposal
        # must carry (paper line 15's guard).  Kept in sync with stage
        # transitions so proposals never rescan all of PENDING.
        self._eligible: Dict[str, _Pending] = {}
        # Fourth engine note: R-Delivered, not yet A-Delivered; A-Delivered
        # before its R-Deliver; final before these groups' proposals.
        self._heard: Set[str] = set()
        self._unheard: Set[str] = set()
        self._late_ts: Dict[str, Set[int]] = {}
        # Timestamp proposals received via (TS, m) messages, buffered by
        # message id and proposing group (may arrive before stage s1).
        self.ts_proposals: Dict[str, Dict[int, int]] = {}
        # dest_groups -> (the *other* destination groups, their pids) —
        # the (TS, m) fan-out target; destination sets repeat heavily.
        self._ts_dests: Dict[Tuple[int, ...],
                             Tuple[List[int], List[int]]] = {}
        # (TS, m) copies sent so far per destination group.
        self._ts_sent: Dict[int, int] = {}
        self._handler: Optional[DeliveryHandler] = None

        self.rmcast = self.RMCAST_CLS(
            process, detector, relay_after=relay_after,
            namespace=f"{self.ns}.rmc",
        )
        self.rmcast.set_delivery_handler(self._on_rdeliver)
        self.consensus = GroupConsensus(
            process, topology.members(self.my_gid), detector,
            retry_timeout=retry_timeout, namespace=f"{self.ns}.cons",
        )
        self.sequence = ConsensusSequence(
            self.consensus, self._on_decided, first_instance=1
        )
        process.register_handler(f"{self.ns}.ts", self._on_ts)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The group-clock / next-consensus-instance value K (tests and
        diagnostics; the protocol reads ``self.sequence.current``)."""
        return self.sequence.current

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_mcast(self, msg: AppMessage) -> None:
        """Paper Task 1 (line 8-9): R-MCast m to the addressees."""
        if not msg.dest_groups:
            raise ValueError("message must address at least one group")
        rec = self._records.get(msg.mid)
        if rec is None or rec.msg is not msg:
            self.catalog.intern(msg)  # not cast through a System
        dest_pids = self.topology.processes_of_groups(msg.dest_groups)
        self.rmcast.multicast(dest_pids, {"mid": msg.mid}, mid=msg.mid)

    # ------------------------------------------------------------------
    # Stage s0 entry (paper lines 10-13)
    # ------------------------------------------------------------------
    def _on_rdeliver(self, payload: dict, mid: str, sender: int) -> None:
        """Lines 10-13 (``mid`` is the message's own: see a_mcast)."""
        if mid in self._unheard:
            self._unheard.remove(mid)  # A-Delivered already
            return
        self._heard.add(mid)
        self._ensure_pending(self._records[mid].msg)

    def _ensure_pending(self, msg: AppMessage) -> None:
        """Add m to PENDING at stage s0 unless already pending.

        Never called for a delivered m: its R-Deliver finds it in
        ``_unheard``, its (TS, m) copies are recognised by rank.
        """
        if msg.mid in self.pending:
            return
        entry = _Pending(msg=msg, ts=self.sequence.current, stage=STAGE_S0)
        self.pending[msg.mid] = entry
        self._eligible[msg.mid] = entry
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Consensus interaction (paper lines 14-17)
    # ------------------------------------------------------------------
    def _maybe_propose(self) -> None:
        k = self.sequence.current
        eligible = self._eligible
        if self.prop_k > k or not eligible:
            return
        # One entry in >= 96 % of proposals on the A1 bench workloads.
        if len(eligible) == 1:  # no sort to make
            (mid, entry), = eligible.items()
            if entry.stage != STAGE_S0 and entry.stage != STAGE_S2:
                return
            msg_set = ((mid, entry.stage, entry.ts),)
        else:
            msg_set = tuple(sorted(
                (mid, entry.stage, entry.ts)
                for mid, entry in eligible.items()
                if entry.stage == STAGE_S0 or entry.stage == STAGE_S2
            ))
            if not msg_set:
                return
        self.consensus.propose(k, msg_set)
        self.prop_k = k + 1

    def _on_decided(self, instance: int, msg_set: tuple) -> None:
        """Paper lines 18-32: process the decision of instance K.

        No delivered message is in ``msg_set``: a member proposes
        instance K only after deciding K-1, so after the decision that
        moves m to s3 no member holds m at s0 or s2, and no later
        decision carries it.
        """
        decided_ts: List[int] = []
        to_check_ts: List[str] = []
        eligible = self._eligible
        finals = self._finals
        settled = len(finals)
        for mid, stage, ts in msg_set:
            entry = self.pending.get(mid)
            if entry is None:
                # Line 30: the decision introduces a message we had not
                # seen (our R-Deliver is late); adopt it.
                entry = _Pending(msg=self._records[mid].msg, ts=ts,
                                 stage=stage)
                self.pending[mid] = entry
            msg = entry.msg
            if len(msg.dest_groups) > 1:
                if stage == STAGE_S0:
                    # Lines 22-24: this instance is our group's proposal.
                    entry.ts = instance
                    entry.stage = STAGE_S1
                    self._await_proposals(entry)
                    self._send_ts(msg, instance)
                    to_check_ts.append(mid)
                else:
                    # Lines 25-26: clock pushed past the final timestamp.
                    entry.ts = ts
                    entry.stage = STAGE_S3
                    heapq.heappush(finals, (ts, mid))
                    proposals = self.ts_proposals.get(mid, ())
                    if len(proposals) < len(msg.dest_groups) - 1:
                        # Another member had every proposal: the missing
                        # ones are still on their way here (fourth note).
                        self._late_ts[mid] = {
                            gid for gid in msg.dest_groups
                            if gid != self.my_gid and gid not in proposals}
            else:
                if self.enable_stage_skipping:
                    # Lines 28-29: single-group message — second
                    # consensus not needed, jump straight to s3.
                    entry.ts = instance
                    entry.stage = STAGE_S3
                else:
                    # Ablation: emulate the four-stage pipeline of [5]
                    # even for single-group messages.
                    if stage == STAGE_S0:
                        entry.ts = instance
                        entry.stage = STAGE_S2
                    else:
                        entry.ts = ts
                        entry.stage = STAGE_S3
                heapq.heappush(finals, (entry.ts, mid))
            # Keep the eligible index exact: only s2 survivors go back
            # into the next proposal.
            if entry.stage == STAGE_S2:
                eligible[mid] = entry
            else:
                eligible.pop(mid, None)
            decided_ts.append(entry.ts)
        # Line 31: K <- max(max ts, K) + 1.
        sequence = self.sequence
        new_k = max(max(decided_ts, default=0), sequence.current) + 1
        sequence.advance_to(new_k)
        for mid in to_check_ts:
            self._check_ts_complete(mid)
        # Line 32.  Raising K alone releases nothing (s0 entries never
        # block); an entry whose final timestamp just became known may.
        if len(finals) > settled:
            self._adelivery_test()
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Stage s1: proposal exchange (paper lines 24, 33-40)
    # ------------------------------------------------------------------
    def _send_ts(self, msg: AppMessage, proposal: int) -> None:
        """Line 24: send our group's proposal to the other dest groups.

        Each copy carries its rank among the copies this process has
        addressed to the receiving group, so the receiver can tell how
        far our stamps are known to it without gaps.
        """
        route = self._ts_dests.get(msg.dest_groups)
        if route is None:
            other_groups = [g for g in msg.dest_groups if g != self.my_gid]
            route = (other_groups,
                     self.topology.processes_of_groups(other_groups))
            self._ts_dests[msg.dest_groups] = route
        other_groups, dest_pids = route
        if dest_pids:
            sent = self._ts_sent
            seq = {}
            for gid in other_groups:
                seq[gid] = sent[gid] = sent.get(gid, 0) + 1
            self.process.send_many(
                dest_pids, f"{self.ns}.ts",
                {"mid": msg.mid, "ts": proposal, "gid": self.my_gid,
                 "seq": seq},
            )

    def _best_missing(self, entry: _Pending) -> Optional[_AwaitedGroup]:
        """Of the groups whose proposal for ``entry`` is still missing,
        the one whose clock watermark bounds it highest."""
        received = self.ts_proposals.get(entry.msg.mid, ())
        best = None
        for gid in entry.msg.dest_groups:
            if gid != self.my_gid and gid not in received:
                awaited = self._awaited[gid]
                if best is None or awaited.watermark > best.watermark:
                    best = awaited
        return best

    def _await_proposals(self, entry: _Pending) -> None:
        """Index an s1 entry for the guard, under its best missing group
        (none is missing when every proposal arrived before ours)."""
        home = self._best_missing(entry)
        if home is not None:
            entry.awaits = home.gid
            home.add(entry.ts, entry.msg.mid)

    def _on_ts(self, netmsg: Message) -> None:
        payload = netmsg.payload
        mid = payload["mid"]
        gid = payload["gid"]
        awaited = self._awaited[gid]
        seq = payload["seq"][self.my_gid]
        # Rank seq is the group's proposal for m: a rank seen before came
        # from another member of the group (or is a duplicate) and
        # carries no proposal we did not already have.
        stream = awaited.stream
        first = seq > stream.seq and seq not in stream.ahead
        # Every copy tells how far its group's clock got, including a
        # copy for a message long delivered: skipping it could leave a
        # hole in that group's sequence.
        news = awaited.observe(seq, payload["ts"])
        if first:
            late = self._late_ts.get(mid)
            if late is not None and gid in late:
                # m's final timestamp came without this proposal.
                late.remove(gid)
                if not late:
                    del self._late_ts[mid]
            else:
                proposals = self.ts_proposals.setdefault(mid, {})
                proposals[gid] = payload["ts"]
                # Line 10: a TS message also introduces m (footnote 4
                # liveness).
                self._ensure_pending(self._records[mid].msg)
                self._check_ts_complete(mid)
                entry = self.pending.get(mid)
                if (entry is not None and entry.stage == STAGE_S1
                        and entry.awaits == gid):
                    self._await_proposals(entry)  # others still missing
                news = True
        if news:
            self._adelivery_test()

    def _check_ts_complete(self, mid: str) -> None:
        """Lines 33-40: all proposals in — fix the final timestamp."""
        entry = self.pending.get(mid)
        if entry is None or entry.stage != STAGE_S1:
            return
        proposals = self.ts_proposals.get(mid)
        # Proposals are keyed by the sending group, which genuineness
        # restricts to destination groups other than ours (we are an
        # addressee whenever m is pending here), so completeness is a
        # count comparison — no per-call list materialisation.
        if proposals is None or len(proposals) < len(entry.msg.dest_groups) - 1:
            return
        max_remote = max(proposals.values())
        if entry.ts >= max_remote and self.enable_stage_skipping:
            # Lines 35-36: our proposal is the maximum — the group clock
            # already passed it (line 31), skip the second consensus.
            entry.stage = STAGE_S3
            heapq.heappush(self._finals, (entry.ts, mid))
        else:
            # Lines 39-40: adopt the final timestamp, catch the clock up.
            entry.ts = max(entry.ts, max_remote)
            entry.stage = STAGE_S2
            heapq.heappush(self._finals, (entry.ts, mid))
            self._eligible[mid] = entry
            self._maybe_propose()

    # ------------------------------------------------------------------
    # Stage s3: delivery (paper lines 3-7)
    # ------------------------------------------------------------------
    def _adelivery_test(self) -> None:
        """Deliver while no pending message can finish below the
        minimal s3 one (third engine note)."""
        pending = self.pending
        finals = self._finals
        groups = self._awaited.values()
        handler = self._handler
        heard = self._heard
        while finals:
            key = finals[0]
            head = pending.get(key[1])
            if (head is None or head.ts != key[0]
                    or head.stage < STAGE_S2):
                heapq.heappop(finals)  # delivered or superseded snapshot
                continue
            if head.stage != STAGE_S3:
                return  # an s2 entry finishes below every s3 one
            for awaited in groups:
                while awaited.behind or awaited.ahead:
                    floor = awaited.floor(pending)
                    if floor is None or floor > key:
                        break
                    # An s1 entry may still finish below — unless it
                    # waits for several groups and another one's clock
                    # is further on than its home's: file it there.
                    entry = pending[floor[1]]
                    if len(entry.msg.dest_groups) == 2:
                        return
                    best = self._best_missing(entry)
                    if (best.watermark, floor[1]) < key:
                        return
                    entry.awaits = best.gid
                    best.add(entry.ts, floor[1])
            if handler is None:
                raise RuntimeError("no A-Deliver handler installed")
            mid = key[1]
            del pending[mid]
            self.ts_proposals.pop(mid, None)
            try:
                heard.remove(mid)
            except KeyError:  # delivered before its R-Deliver
                self._unheard.add(mid)
            handler((head.msg,))

    def inv(self) -> None:
        """Assert the delivery-history invariants at an event boundary."""
        pending = self.pending
        assert self._heard.isdisjoint(self._unheard)
        assert self._unheard.isdisjoint(pending)
        assert all(mid in pending for mid in self._heard)
        for mid, groups in self._late_ts.items():
            others = set(self.catalog.get(mid).dest_groups) - {self.my_gid}
            assert groups and groups <= others, (mid, groups)
            entry = pending.get(mid)
            assert entry is None or entry.stage == STAGE_S3, entry
        assert all(mid in pending for mid in self.ts_proposals), \
            sorted(set(self.ts_proposals) - set(pending))

    def blocked_on(self) -> Optional[Blocker]:
        """What the minimal s3 message waits on; None if none waits.

        Diagnostics only: a plain scan of PENDING that recomputes every
        bound from its definition rather than reading the guard's heaps.
        """
        waiting = None  # minimal s3 (ts, mid)
        blocker = None  # minimal (bound, mid, stage, awaited group)
        for mid, entry in self.pending.items():
            if entry.stage == STAGE_S3:
                if waiting is None or (entry.ts, mid) < waiting:
                    waiting = (entry.ts, mid)
                continue
            if entry.stage == STAGE_S0:
                continue
            bound, group = entry.ts, None
            if entry.stage == STAGE_S1:
                group = self._best_missing(entry)
                bound = max(bound, group.watermark)
            if blocker is None or (bound, mid) < blocker[:2]:
                blocker = (bound, mid, entry.stage, group)
        if waiting is None or blocker is None or blocker[:2] > waiting:
            return None
        bound, mid, stage, group = blocker
        if group is None:
            return Blocker(waiting[1], waiting[0], mid, stage, bound)
        return Blocker(waiting[1], waiting[0], mid, stage, bound,
                       group.gid, group.watermark)
