"""Ordered delivery of a group's sequence of consensus decisions.

Algorithm A1 and the ring baseline drive one consensus instance at a
time per group: the instance number is the group clock ``K``.  Group
members advance ``K`` in lock step (paper Lemma A.1), but over the
network a process can *learn* decisions out of order — e.g. receive the
``decide`` of instance 7 while still waiting for instance 3.

:class:`ConsensusSequence` releases raw decisions to the client exactly
when the client's current instance number matches, re-creating the
pseudocode's ``When Decided(K, msgSet')`` guard: the decision of the
current instance goes straight to the client, and only a later one
waits in a buffer until the cursor reaches it.  The client proposes to
its consensus itself, always in its current instance.

After each release it promises the consensus a *floor* — its cursor
(:meth:`GroupConsensus.set_floor`): every instance below it has been
released, or skipped by the whole group, so it is decided here and will
never be proposed here.  That lets the consensus drop decided records
every member has passed (:mod:`repro.consensus.paxos`, "Records below
the group floor go").

Algorithm A2 does not use it: it keeps two rounds in flight, publishes
each round's bundle the moment its instance decides and orders rounds
itself at delivery, so it takes :class:`GroupConsensus`'s raw decisions
(see :mod:`repro.core.abcast`) and sets no floor.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.consensus.interfaces import ConsensusProtocol

# Client callback: (instance_number, decided_value) -> None.  The client
# must call :meth:`ConsensusSequence.advance_to` with its next instance
# number before the callback returns.
OrderedDecisionHandler = Callable[[int, Any], None]

# "Nothing buffered for this instance": any value may be decided.
_NONE = object()


class ConsensusSequence:
    """Per-process adapter turning raw decisions into an ordered stream."""

    def __init__(
        self,
        consensus: ConsensusProtocol,
        on_decide: OrderedDecisionHandler,
        first_instance: int = 1,
    ) -> None:
        self.consensus = consensus
        self.on_decide = on_decide
        self.current = first_instance
        self._buffer: Dict[int, Any] = {}
        self._flushing = False
        # A consensus that keeps no history (a test double) takes none.
        self._set_floor = getattr(consensus, "set_floor", None)
        consensus.set_decision_handler(self._on_raw_decision)
        if self._set_floor is not None:
            self._set_floor(first_instance)

    # ------------------------------------------------------------------
    def advance_to(self, instance: int) -> None:
        """Move the cursor; called by the client inside its callback."""
        if instance <= self.current:
            raise ValueError(
                f"instance cursor must move forward "
                f"({self.current} -> {instance})"
            )
        self.current = instance
        if not self._flushing:
            self._flush()

    def inv(self) -> None:
        """Assert the cursor invariants; holds at every event boundary."""
        assert all(instance >= self.current for instance in self._buffer), \
            f"buffered {sorted(self._buffer)} below cursor {self.current}"
        if self._set_floor is not None:
            assert self.consensus.floor == self.current, \
                f"floor {self.consensus.floor} != cursor {self.current}"

    # ------------------------------------------------------------------
    def _on_raw_decision(self, instance: int, value: Any) -> None:
        """A decision for the cursor's instance goes straight to the
        client; a later one waits in the buffer, as does any decision
        that arrives while a release is running (it is released in
        turn)."""
        if instance == self.current and not self._flushing:
            self._release(instance, value)
        elif instance >= self.current:
            self._buffer[instance] = value
        # else: a stale duplicate

    def _flush(self) -> None:
        """Release the buffered decision for the cursor, if any; the
        floor follows the cursor either way."""
        value = self._buffer.pop(self.current, _NONE)
        if value is not _NONE:
            self._release(self.current, value)
        elif self._set_floor is not None:
            self._set_floor(self.current)

    def _release(self, instance: int, value: Any) -> None:
        """Hand ``instance``'s decision to the client, then each buffered
        one the cursor reaches, then promise the floor.

        The client's callback advances the cursor synchronously (to
        ``max(ts)+1`` in A1), so the loop naturally walks the group's —
        possibly non-contiguous — instance sequence.
        """
        buffer = self._buffer
        self._flushing = True
        try:
            while True:
                self.on_decide(instance, value)
                if self.current == instance:
                    break  # client did not advance; stop, don't spin
                instance = self.current
                value = buffer.pop(instance, _NONE)
                if value is _NONE:
                    break
        finally:
            self._flushing = False
        if self._set_floor is not None:
            self._set_floor(self.current)
