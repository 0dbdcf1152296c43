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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Set

from repro.consensus.interfaces import ConsensusProtocol, DecisionHandler
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.sim.events import Event
from repro.sim.process import Process

_KINDS = ("forward", "prepare", "promise", "accept", "accepted", "nack",
          "decide")


@dataclass
class _AcceptorState:
    """Per-instance acceptor bookkeeping."""

    promised: int = -1
    accepted_ballot: int = -1
    accepted_value: Any = None


@dataclass
class _ProposerState:
    """Per-instance proposer bookkeeping (only while leading a ballot)."""

    ballot: int = -1
    promises: Dict[int, tuple] = field(default_factory=dict)
    value: Any = None
    phase: str = "idle"  # idle | prepare | accept


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

        self._acceptors: Dict[int, _AcceptorState] = {}
        self._proposers: Dict[int, _ProposerState] = {}
        # instance -> ballot -> acceptors whose ``accepted`` we saw.
        self._accepted_tally: Dict[int, Dict[int, Set[int]]] = {}
        self._candidates: Dict[int, Any] = {}  # my own / forwarded values
        self._proposed: Set[int] = set()  # instances I called propose() on
        self._decisions: Dict[int, Any] = {}
        self._max_ballot_seen: Dict[int, int] = {}
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
        return instance in self._decisions

    def decision(self, instance: int) -> Any:
        """The locally known decision of ``instance`` (must be decided)."""
        return self._decisions[instance]

    def propose(self, instance: int, value: Hashable) -> None:
        if instance in self._proposed:
            raise ValueError(
                f"process {self.process.pid} proposed twice in instance {instance}"
            )
        self._proposed.add(instance)
        if instance in self._decisions:
            return
        self._candidates.setdefault(instance, value)
        self._attempt(instance)
        self._arm_timer(instance)

    # ------------------------------------------------------------------
    # Leader / liveness machinery
    # ------------------------------------------------------------------
    def _current_leader(self) -> Optional[int]:
        return self.detector.leader(self.process.pid, self.members)

    def _attempt(self, instance: int) -> None:
        """Push ``instance`` forward: lead it or forward our value."""
        if instance in self._decisions or self.process.crashed:
            return
        leader = self._current_leader()
        if leader is None:
            return  # no candidate leader; retry later
        value = self._candidates.get(instance)
        if leader != self.process.pid:
            if value is not None:
                self.process.send(
                    leader, self._k_forward,
                    {"k": instance, "value": value},
                )
            return
        self._lead(instance)

    def _lead(self, instance: int) -> None:
        """Start (or escalate) a ballot we own for ``instance``."""
        state = self._proposers.setdefault(instance, _ProposerState())
        if state.phase != "idle":
            return  # a ballot of ours is already in flight
        rank = self._rank[self.process.pid]
        d = len(self.members)
        floor = max(self._max_ballot_seen.get(instance, -1), state.ballot)
        ballot = rank
        while ballot <= floor:
            ballot += d
        if ballot == 0:
            # Ballot 0 is safe without a prepare phase: no acceptor can
            # have accepted anything in a smaller ballot.
            value = self._candidates.get(instance)
            if value is None:
                return  # nothing to propose yet; wait for a forward
            state.ballot = ballot
            state.promises = {}
            state.phase = "accept"
            state.value = value
            self._broadcast(self._k_accept,
                            {"k": instance, "b": ballot, "value": value})
        else:
            state.ballot = ballot
            state.promises = {}
            state.value = None
            state.phase = "prepare"
            self._broadcast(self._k_prepare, {"k": instance, "b": ballot})

    def _arm_timer(self, instance: int) -> None:
        if instance in self._timer_armed or instance in self._decisions:
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
                self._attempt(instance)
                self._arm_timer(instance)
        if self._alarm is None:
            self._set_alarm()

    def _broadcast(self, kind: str, payload: dict) -> None:
        self.process.send_many(self.members, kind, payload)

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _on_forward(self, msg: Message) -> None:
        instance, value = msg.payload["k"], msg.payload["value"]
        if instance in self._decisions:
            # Help a lagging peer instead of re-running the instance.
            self.process.send(
                msg.src, self._k_decide,
                {"k": instance, "value": self._decisions[instance]},
            )
            return
        self._candidates.setdefault(instance, value)
        state = self._proposers.get(instance)
        if state is None or state.phase == "idle":
            self._attempt(instance)
        elif state.phase == "prepare" and state.value is None:
            # A value arrived while we were collecting promises; nothing
            # to do — _maybe_start_accept will pick it up.
            self._maybe_start_accept(instance, state)

    def _on_prepare(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        self._note_ballot(instance, ballot)
        acc = self._acceptors.setdefault(instance, _AcceptorState())
        if ballot > acc.promised:
            acc.promised = ballot
            self.process.send(
                msg.src, self._k_promise,
                {
                    "k": instance,
                    "b": ballot,
                    "ab": acc.accepted_ballot,
                    "av": acc.accepted_value,
                },
            )
        else:
            self.process.send(
                msg.src, self._k_nack,
                {"k": instance, "b": ballot, "promised": acc.promised},
            )

    def _on_promise(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        state = self._proposers.get(instance)
        if state is None or state.phase != "prepare" or state.ballot != ballot:
            return
        state.promises[msg.src] = (msg.payload["ab"], msg.payload["av"])
        self._maybe_start_accept(instance, state)

    def _maybe_start_accept(self, instance: int, state: _ProposerState) -> None:
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
            value = self._candidates.get(instance)
            if value is None:
                return  # must wait for a candidate (own propose or forward)
        state.phase = "accept"
        state.value = value
        self._broadcast(
            self._k_accept,
            {"k": instance, "b": state.ballot, "value": value},
        )

    def _on_accept(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        value = msg.payload["value"]
        self._note_ballot(instance, ballot)
        acc = self._acceptors.setdefault(instance, _AcceptorState())
        if ballot >= acc.promised:
            acc.promised = ballot
            acc.accepted_ballot = ballot
            acc.accepted_value = value
            # All-to-all learning (Schiper [11] style): every member
            # tallies accepted votes and decides two delays after the
            # proposal, at O(d²) messages per instance.
            self._broadcast(
                self._k_accepted,
                {"k": instance, "b": ballot, "value": value},
            )
        else:
            self.process.send(
                msg.src, self._k_nack,
                {"k": instance, "b": ballot, "promised": acc.promised},
            )

    def _on_accepted(self, msg: Message) -> None:
        instance, ballot = msg.payload["k"], msg.payload["b"]
        if instance in self._decisions:
            return
        voters = self._accepted_tally.setdefault(
            instance, {}).setdefault(ballot, set())
        voters.add(msg.src)
        if len(voters) >= self._majority:
            self._decide(instance, msg.payload["value"])

    def _on_nack(self, msg: Message) -> None:
        instance = msg.payload["k"]
        self._note_ballot(instance, msg.payload["promised"])
        state = self._proposers.get(instance)
        if state is None or state.phase == "idle":
            return
        if msg.payload["b"] != state.ballot:
            return
        # Our ballot lost; retreat and let the retry timer escalate.
        state.phase = "idle"
        self._arm_timer(instance)

    def _on_decide(self, msg: Message) -> None:
        self._decide(msg.payload["k"], msg.payload["value"])

    # ------------------------------------------------------------------
    def _note_ballot(self, instance: int, ballot: int) -> None:
        seen = self._max_ballot_seen.get(instance, -1)
        if ballot > seen:
            self._max_ballot_seen[instance] = ballot

    def _decide(self, instance: int, value: Any) -> None:
        if instance in self._decisions:
            return
        self._decisions[instance] = value
        self._proposers.pop(instance, None)
        self._accepted_tally.pop(instance, None)
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
