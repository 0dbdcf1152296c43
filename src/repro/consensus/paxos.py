"""Uniform consensus inside a group: single-decree Paxos per instance.

This is the substrate the paper assumes solvable in each group
(Section 2.1).  Design notes:

* **Intra-group only.** Every consensus message stays inside the group,
  so consensus contributes zero inter-group hops to any latency degree —
  exactly the accounting the paper's analysis relies on.
* **Leader-based fast path.**  Ballot ``b`` is owned by the group member
  with rank ``b % d``.  Ballot 0 needs no prepare phase (no smaller
  ballot can exist), so the failure-free flow is: followers forward
  their proposal to the rank-0 member; it sends ``accept``; acceptors
  broadcast ``accepted`` to the whole group; every member decides
  locally once it counts a majority of ``accepted`` for one ballot.
* **Two message delays, O(d²) messages.**  The all-to-all ``accepted``
  broadcast is what the oracle-based consensus of Schiper [11] — the
  one the paper's Figure 1 charges ``2kd(kd-1)`` messages and latency
  degree 2 for — does: everyone learns the decision two delays after
  the proposal, with quadratically many messages.  Both numbers matter:
  Figure 1's message column for [10] (which runs this consensus
  *across* groups) inherits the O((kd)²) term, and its latency column
  inherits the 2.
* **Uniformity.**  A value is decided only after a majority of acceptors
  accepted it, so any later ballot's prepare phase re-discovers it: even
  a process that decides and immediately crashes cannot disagree with
  the survivors.
* **Liveness.**  Undecided proposers retry on a timer: they re-forward
  to the current leader (per the failure detector) or, if they are the
  leader, run a higher ballot.  Timers are armed only while the process
  has an undecided proposal, so a finished group goes quiet — this is
  what lets Algorithm A2 be quiescent (paper Proposition A.9, which
  assumes halting consensus).
* **One retry alarm per endpoint.**  Almost every instance decides long
  before its retry deadline, so arming a timeout only *reserves* its
  kernel tie-break slot and appends ``(deadline, slot, instance)`` to a
  FIFO (deadlines are monotone: constant timeout, monotone clock).  At
  most one kernel event — the alarm of the earliest entry — is queued;
  when it fires for an instance decided meanwhile it moves on to the
  next entry's own reserved ``(deadline, slot)``, so a retry that does
  fire does so exactly where a per-instance timer would have.  While
  nothing is armed the alarm is cancelled (a finished group is
  quiescent at once) and the next proposal revives it in place.
* **One record per instance.**  Everything an endpoint knows about an
  instance lives in one slotted :class:`_Instance`, built on first
  touch.  A decided record keeps only what a late message can still ask
  for: the acceptor state (``promised`` and the last accepted ballot and
  value), so a late ``prepare`` or ``accept`` is answered exactly as
  before — an acceptor that forgot its promise could accept a stale
  lower ballot and let an undecided member count a majority for a
  second value; the decision, for the ``decide`` reply to a late
  ``forward``; and the ``proposed`` flag, so proposing twice still
  raises.  The proposer state, the ``accepted`` tally and the candidate
  value go at the decision: in A1 every member proposes its own message
  set, and a non-leader's copy is never needed again.  Values are never
  ``None`` (:meth:`GroupConsensus.propose` rejects it), so ``None``
  means "not yet" in ``candidate`` and ``decision``.  A decided record
  lives until the group floor passes it (next note).
* **Records below the group floor go.**  A client that walks one
  instance sequence (:class:`~repro.consensus.sequence.ConsensusSequence`:
  A1 and the ring baseline) promises a *floor* through
  :meth:`GroupConsensus.set_floor`: every instance below it is decided
  here and will never be proposed here.  Floors ride on messages that
  already flow: a ``forward`` carries its sender's floor; an ``accept``
  carries the leader's floor and its *group floor*, the least floor it
  knows of, which followers adopt.  Every :data:`PRUNE_EVERY` decisions
  an endpoint drops the decided records below its group floor that
  stayed on the ballot-0 fast path (promised and accepted ballot 0, no
  higher ballot seen) — with them the decided values.  A record that
  saw any other ballot stays.  Why it is safe: a floor only rises and
  the group floor never exceeds any member's floor, so below it every
  member has decided.  A late ``accepted``, ``decide``, ``promise`` or
  ``nack`` for a dropped instance is ignored, as a decided record
  ignores it.  A late ``forward``, ``prepare`` or ``accept`` re-creates
  the record as it was dropped — promised 0, accepted (0, value),
  decided — with :data:`FORGOTTEN` for the value, and is answered by
  the same code as before: the same kinds go to the same destinations.
  The forgotten value can only reach a ``promise`` or ``decide``
  payload, and its receiver has decided and ignores both.  A2 (two
  rounds in flight, raw decisions), the mid-keyed global consensus and
  a bare endpoint set no floor and keep every record.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Hashable, List, Optional, Set

from repro.consensus.interfaces import ConsensusProtocol, DecisionHandler
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.sim.events import Event
from repro.sim.process import Process

_KINDS = ("forward", "prepare", "promise", "accept", "accepted", "nack",
          "decide")

#: Decisions between two prunes of the records below the group floor.
#: Live records per endpoint stay ≈ this plus the floor's lag.
PRUNE_EVERY = 64


class _Forgotten:
    """The value of a dropped decided record, if a late message asks."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FORGOTTEN"


FORGOTTEN = _Forgotten()


class _ProposerState:
    """Per-instance proposer bookkeeping (only while leading a ballot)."""

    __slots__ = ("ballot", "promises", "value", "phase")

    def __init__(self) -> None:
        self.ballot = -1
        self.promises: Dict[int, tuple] = {}
        self.value: Any = None
        self.phase = "idle"  # idle | prepare | accept


class _Instance:
    """One endpoint's view of one instance (see "One record per instance").

    Always truthy, so ``instances.get(k) or self._new_record(k)`` finds
    or builds a record with one dict probe.
    """

    __slots__ = ("promised", "accepted_ballot", "accepted_value",
                 "ballot_seen", "proposed", "decision", "candidate",
                 "proposer", "tally")

    def __init__(self) -> None:
        # Kept for the instance's whole life.
        self.promised = -1
        self.accepted_ballot = -1
        self.accepted_value: Any = None
        self.ballot_seen = -1  # highest ballot heard of (for _lead)
        self.proposed = False  # propose() was called here
        self.decision: Any = None
        # Dropped at the decision.
        self.candidate: Any = None  # own or forwarded value
        self.proposer: Optional[_ProposerState] = None
        # ballot -> acceptors whose ``accepted`` we saw.
        self.tally: Optional[Dict[int, Set[int]]] = None


def _forgotten_record() -> _Instance:
    """A dropped record as a late message finds it (ballot-0 fast path)."""
    record = _Instance()
    record.promised = record.accepted_ballot = record.ballot_seen = 0
    record.accepted_value = record.decision = FORGOTTEN
    return record


def _on_fast_path(record: _Instance) -> bool:
    """Promised and accepted ballot 0, and no higher ballot heard of."""
    return record.promised == record.accepted_ballot \
        == record.ballot_seen == 0


class GroupConsensus(ConsensusProtocol):
    """One process's endpoint of the group-wide Paxos machinery."""

    def __init__(
        self,
        process: Process,
        group_members: List[int],
        detector: FailureDetector,
        retry_timeout: float = 50.0,
        namespace: str = "cons",
    ) -> None:
        """Attach the consensus layer to ``process``.

        Args:
            process: The hosting process.
            group_members: Pids of the process's group (must include it).
            detector: Failure detector used for leader election.
            retry_timeout: Virtual-time gap between liveness retries.
            namespace: Message-kind prefix; lets several independent
                consensus stacks coexist on one process.
        """
        if process.pid not in group_members:
            raise ValueError("process must belong to its own group")
        self.process = process
        self.members = sorted(group_members)
        self.detector = detector
        self.retry_timeout = retry_timeout
        self.ns = namespace
        self._rank = {pid: i for i, pid in enumerate(self.members)}
        self._majority = len(self.members) // 2 + 1

        self._instances: Dict[Hashable, _Instance] = {}
        # Floors (see "Records below the group floor go"): our own
        # promise; the highest floor heard per member rank (ours copied
        # in when sampled); the highest group floor adopted from a
        # leader's accept, a floor every member has reached; the group
        # floor, the larger of the two bounds as last sampled; and the
        # group floor of the last prune.
        self.floor = 0
        self._my_rank = self._rank[process.pid]
        self._floors = [0] * len(self.members)
        self._adopted = 0
        self._group_floor = 0
        self._pruned = 0
        self._until_prune = PRUNE_EVERY
        self._inv_floors: Optional[tuple] = None
        # Retry timeouts: instances with a live deadline, the FIFO of
        # (deadline, reserved slot, instance) entries — armed or stale —
        # and the one queued kernel event, always for the FIFO head
        # (cancelled while nothing is armed).
        self._timer_armed: Set[int] = set()
        self._timers: Deque[tuple] = deque()
        self._alarm: Optional[Event] = None
        self._handler: Optional[DecisionHandler] = None

        kinds = [f"{namespace}.{suffix}" for suffix in _KINDS]
        (self._k_forward, self._k_prepare, self._k_promise, self._k_accept,
         self._k_accepted, self._k_nack, self._k_decide) = kinds
        self._retry_label = f"{namespace}.retry"
        for suffix, kind in zip(_KINDS, kinds):
            process.register_handler(kind, getattr(self, f"_on_{suffix}"))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def set_decision_handler(self, handler: DecisionHandler) -> None:
        if self._handler is not None:
            raise ValueError("decision handler already set")
        self._handler = handler

    def decided(self, instance: int) -> bool:
        """True once decided here.  Below the last prune point an
        instance is decided everywhere or was skipped by the whole group,
        so every instance there reads as decided."""
        record = self._instances.get(instance)
        if record is None:
            return self._was_pruned(instance)
        return record.decision is not None

    def decision(self, instance: int) -> Any:
        """The locally known decision of ``instance`` (must be decided)."""
        record = self._instances.get(instance)
        if record is None or record.decision is FORGOTTEN:
            if self._was_pruned(instance):
                raise KeyError(
                    f"instance {instance} was pruned: it is below the "
                    f"group floor {self._pruned}")
        if record is None or record.decision is None:
            raise KeyError(instance)
        return record.decision

    def set_floor(self, instance: int) -> None:
        """Promise that every instance below ``instance`` is decided here
        and will never be proposed here; the floor only rises."""
        if instance < self.floor:
            raise ValueError(
                f"process {self.process.pid} lowered its floor "
                f"{self.floor} -> {instance}")
        self.floor = instance

    def propose(self, instance: int, value: Hashable) -> None:
        if value is None:
            # None reads as "no candidate": it would never be sent, and
            # the retry alarm would re-arm forever.
            raise ValueError(
                f"process {self.process.pid} proposed None in instance "
                f"{instance}"
            )
        if self.floor and instance < self.floor:
            raise ValueError(
                f"process {self.process.pid} proposed in instance "
                f"{instance}, below its floor {self.floor}")
        record = self._instances.get(instance) or self._new_record(instance)
        if record.proposed:
            raise ValueError(
                f"process {self.process.pid} proposed twice in instance {instance}"
            )
        record.proposed = True
        if record.decision is not None:
            return
        if record.candidate is None:
            record.candidate = value
        self._attempt(instance, record)
        self._arm_timer(instance, record)

    def inv(self) -> None:
        """Assert the per-instance and floor invariants; holds at every
        event boundary.  The floors only rise between two calls."""
        floors = (self.floor, self._adopted, self._group_floor,
                  self._pruned, *self._floors)
        if self._inv_floors is not None:
            assert all(now >= before for now, before
                       in zip(floors, self._inv_floors)), \
                f"a floor fell: {self._inv_floors} -> {floors}"
        self._inv_floors = floors
        assert self._floors[self._my_rank] <= self.floor, \
            (self._floors, self.floor)
        assert self._group_floor <= self.floor, \
            f"group floor {self._group_floor} above ours {self.floor}"
        # A member's learned floor is what it said or, if higher, a
        # group floor adopted since.
        assert all(self._group_floor <= max(floor, self._adopted)
                   for floor in self._floors), \
            f"group floor {self._group_floor} above a learned floor " \
            f"{self._floors} (adopted {self._adopted})"
        assert self._pruned <= self._group_floor, \
            (self._pruned, self._group_floor)
        floor, pruned = self.floor, self._pruned
        for instance, record in self._instances.items():
            assert record.accepted_ballot <= record.promised, \
                (instance, record.accepted_ballot, record.promised)
            assert (record.accepted_value is not None) \
                == (record.accepted_ballot >= 0), \
                (instance, record.accepted_ballot, record.accepted_value)
            if record.decision is not None:
                assert record.proposer is None and record.tally is None \
                    and record.candidate is None, \
                    f"decided instance {instance} kept undecided state"
            if floor and instance < floor:
                assert record.decision is not None, \
                    f"undecided instance {instance} below the floor {floor}"
            if pruned and instance < pruned \
                    and record.decision is not FORGOTTEN:
                assert not _on_fast_path(record), \
                    f"fast-path instance {instance} kept below {pruned}"
        for instance in self._timer_armed:
            assert not self.decided(instance), \
                f"retry armed for decided instance {instance}"

    # ------------------------------------------------------------------
    # Leader / liveness machinery
    # ------------------------------------------------------------------
    def _new_record(self, instance: Hashable) -> _Instance:
        """First touch of ``instance``; a dropped one comes back forgotten."""
        pruned = self._pruned
        record = self._instances[instance] = (
            _forgotten_record() if pruned and instance < pruned
            else _Instance())
        return record

    def _was_pruned(self, instance: Hashable) -> bool:
        pruned = self._pruned
        return bool(pruned) and instance < pruned

    # ------------------------------------------------------------------
    # Floors
    # ------------------------------------------------------------------
    def _sample_group_floor(self) -> int:
        """Raise the group floor to the least learned floor; return it."""
        floors = self._floors
        floors[self._my_rank] = self.floor
        group_floor = min(floors)
        if group_floor < self._adopted:
            group_floor = self._adopted
        if group_floor > self._group_floor:
            self._group_floor = group_floor
        return self._group_floor

    def _prune(self) -> None:
        """Drop the fast-path decided records below the group floor."""
        floor = self._sample_group_floor()
        if floor <= self._pruned:
            return
        instances = self._instances
        # _on_fast_path, inlined: this visits every live record.
        for instance in [instance for instance, record in instances.items()
                         if instance < floor
                         and record.decision is not None
                         and record.promised == record.accepted_ballot
                         == record.ballot_seen == 0]:
            del instances[instance]
        self._pruned = floor

    def _attempt(self, instance: int, record: _Instance) -> None:
        """Push ``instance`` forward: lead it or forward our value."""
        if record.decision is not None or self.process.crashed:
            return
        leader = self.detector.leader(self.process.pid, self.members)
        if leader is None:
            return  # no candidate leader; retry later
        if leader != self.process.pid:
            if record.candidate is not None:
                self.process.send(
                    leader, self._k_forward,
                    {"k": instance, "value": record.candidate,
                     "f": self.floor},
                )
            return
        self._lead(instance, record)

    def _lead(self, instance: int, record: _Instance) -> None:
        """Start (or escalate) a ballot we own for ``instance``."""
        state = record.proposer
        if state is None:
            state = record.proposer = _ProposerState()
        if state.phase != "idle":
            return  # a ballot of ours is already in flight
        rank = self._my_rank
        d = len(self.members)
        highest = max(record.ballot_seen, state.ballot)
        ballot = rank
        while ballot <= highest:
            ballot += d
        if ballot == 0:
            # Ballot 0 is safe without a prepare phase: no acceptor can
            # have accepted anything in a smaller ballot.
            value = record.candidate
            if value is None:
                return  # nothing to propose yet; wait for a forward
            state.ballot = ballot
            state.promises = {}
            state.phase = "accept"
            state.value = value
            self.process.send_many(
                self.members, self._k_accept,
                {"k": instance, "b": ballot, "value": value,
                 "f": self.floor, "g": self._sample_group_floor()})
        else:
            state.ballot = ballot
            state.promises = {}
            state.value = None
            state.phase = "prepare"
            self.process.send_many(self.members, self._k_prepare,
                                   {"k": instance, "b": ballot})

    def _arm_timer(self, instance: int, record: _Instance) -> None:
        if instance in self._timer_armed or record.decision is not None:
            return
        self._timer_armed.add(instance)
        sim = self.process.sim
        self._timers.append(
            (sim.now + self.retry_timeout, sim.reserve_slot(), instance))
        alarm = self._alarm
        if alarm is None or (alarm.cancelled and not alarm.revive()):
            self._set_alarm()

    def _set_alarm(self) -> None:
        """Queue the alarm of the earliest still-armed entry, if any."""
        timers = self._timers
        armed = self._timer_armed
        while timers:
            deadline, slot, instance = timers[0]
            if instance in armed:
                self._alarm = self.process.sim.call_at_reserved(
                    deadline, slot, self._on_alarm, self._retry_label)
                return
            timers.popleft()
        self._alarm = None

    def _on_alarm(self) -> None:
        self._alarm = None
        instance = self._timers.popleft()[2]
        if instance in self._timer_armed:
            self._timer_armed.discard(instance)
            if not self.process.crashed:
                record = self._instances[instance]
                self._attempt(instance, record)
                self._arm_timer(instance, record)
        if self._alarm is None:
            self._set_alarm()

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _on_forward(self, msg: Message) -> None:
        payload = msg.payload
        instance, value = payload["k"], payload["value"]
        floor, rank = payload.get("f", 0), self._rank[msg.src]
        if floor > self._floors[rank]:
            self._floors[rank] = floor
        record = self._instances.get(instance) or self._new_record(instance)
        if record.decision is not None:
            # Help a lagging peer instead of re-running the instance.
            self.process.send(
                msg.src, self._k_decide,
                {"k": instance, "value": record.decision},
            )
            return
        if record.candidate is None:
            record.candidate = value
        state = record.proposer
        if state is None or state.phase == "idle":
            self._attempt(instance, record)
        elif state.phase == "prepare" and state.value is None:
            # A value arrived while we were collecting promises: if a
            # majority promised with nothing accepted, the accept phase
            # was waiting for exactly this candidate.
            self._maybe_start_accept(instance, record)

    def _on_prepare(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        record = self._instances.get(instance) or self._new_record(instance)
        if ballot > record.ballot_seen:
            record.ballot_seen = ballot
        if ballot > record.promised:
            record.promised = ballot
            self.process.send(
                msg.src, self._k_promise,
                {
                    "k": instance,
                    "b": ballot,
                    "ab": record.accepted_ballot,
                    "av": record.accepted_value,
                },
            )
        else:
            self.process.send(
                msg.src, self._k_nack,
                {"k": instance, "b": ballot, "promised": record.promised},
            )

    def _on_promise(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        record = self._instances.get(instance)  # we sent the prepare
        if record is None:
            return  # dropped below the group floor: decided
        state = record.proposer
        if state is None or state.phase != "prepare" or state.ballot != ballot:
            return
        state.promises[msg.src] = (msg.payload["ab"], msg.payload["av"])
        self._maybe_start_accept(instance, record)

    def _maybe_start_accept(self, instance: int, record: _Instance) -> None:
        state = record.proposer
        if len(state.promises) < self._majority:
            return
        # Choose the value of the highest accepted ballot, else our own.
        best_ballot, best_value = -1, None
        for accepted_ballot, accepted_value in state.promises.values():
            if accepted_ballot > best_ballot:
                best_ballot, best_value = accepted_ballot, accepted_value
        if best_ballot >= 0:
            value = best_value
        else:
            value = record.candidate
            if value is None:
                return  # must wait for a candidate (own propose or forward)
        state.phase = "accept"
        state.value = value
        self.process.send_many(
            self.members, self._k_accept,
            {"k": instance, "b": state.ballot, "value": value,
             "f": self.floor, "g": self._sample_group_floor()},
        )

    def _on_accept(self, msg: Message) -> None:
        payload = msg.payload
        instance, ballot = payload["k"], payload["b"]
        value = payload["value"]
        try:
            floor, group_floor = payload["f"], payload["g"]
        except KeyError:  # an accept made by hand, without floors
            floor = group_floor = 0
        rank = self._rank[msg.src]
        if floor > self._floors[rank]:
            self._floors[rank] = floor
        if group_floor > self._adopted:
            self._adopted = group_floor
        record = self._instances.get(instance) or self._new_record(instance)
        if ballot > record.ballot_seen:
            record.ballot_seen = ballot
        if ballot >= record.promised:
            record.promised = ballot
            record.accepted_ballot = ballot
            record.accepted_value = value
            # All-to-all learning (Schiper [11] style): every member
            # tallies accepted votes and decides two delays after the
            # proposal, at O(d²) messages per instance.
            self.process.send_many(
                self.members, self._k_accepted,
                {"k": instance, "b": ballot, "value": value},
            )
        else:
            self.process.send(
                msg.src, self._k_nack,
                {"k": instance, "b": ballot, "promised": record.promised},
            )

    def _on_accepted(self, msg: Message) -> None:
        payload = msg.payload
        instance, ballot = payload["k"], payload["b"]
        record = self._instances.get(instance)
        if record is None:
            pruned = self._pruned
            if pruned and instance < pruned:
                return  # dropped below the group floor: decided
            record = self._instances[instance] = _Instance()
        elif record.decision is not None:
            return
        tally = record.tally
        if tally is None:
            tally = record.tally = {}
        voters = tally.get(ballot)
        if voters is None:
            voters = tally[ballot] = set()
        voters.add(msg.src)
        if len(voters) >= self._majority:
            self._decide(instance, record, payload["value"])

    def _on_nack(self, msg: Message) -> None:
        instance, promised = msg.payload["k"], msg.payload["promised"]
        record = self._instances.get(instance)  # we sent prepare / accept
        if record is None:
            return  # dropped below the group floor: decided
        if promised > record.ballot_seen:
            record.ballot_seen = promised
        state = record.proposer
        if state is None or state.phase == "idle":
            return
        if msg.payload["b"] != state.ballot:
            return
        # Our ballot lost; retreat and let the retry timer escalate.
        state.phase = "idle"
        self._arm_timer(instance, record)

    def _on_decide(self, msg: Message) -> None:
        instance = msg.payload["k"]
        record = self._instances.get(instance)
        if record is None:
            if self._was_pruned(instance):
                return  # dropped below the group floor: decided
            record = self._new_record(instance)
        self._decide(instance, record, msg.payload["value"])

    # ------------------------------------------------------------------
    def _decide(self, instance: int, record: _Instance, value: Any) -> None:
        if record.decision is not None:
            return
        record.decision = value
        record.candidate = record.proposer = record.tally = None
        self._timer_armed.discard(instance)
        if self._handler is not None:
            self._handler(instance, value)
        # The handler often proposes the next instance, which keeps the
        # queued alarm useful.  With nothing left armed it is dead air:
        # suspending it lets a finished group quiesce at once instead
        # of retry_timeout later.  Its FIFO entry stays, so the next
        # _arm_timer can revive it in place rather than queue another.
        alarm = self._alarm
        if alarm is not None and not alarm.cancelled \
                and not self._timer_armed:
            alarm.cancel()
            head = self._timers[0]
            self._timers.clear()
            self._timers.append(head)
        self._until_prune -= 1
        if not self._until_prune:
            self._until_prune = PRUNE_EVERY
            self._prune()
