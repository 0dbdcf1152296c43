"""Ordered delivery of a group's sequence of consensus decisions.

Algorithm A1 and the ring baseline drive one consensus instance at a
time per group: the instance number is the group clock ``K``.  Group
members advance ``K`` in lock step (paper Lemma A.1), but over the
network a process can *learn* decisions out of order — e.g. receive the
``decide`` of instance 7 while still waiting for instance 3.

:class:`ConsensusSequence` buffers raw decisions and releases them to the
client exactly when the client's current instance number matches,
re-creating the pseudocode's ``When Decided(K, msgSet')`` guard.

After each flush it promises the consensus a *floor* — its cursor
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

from typing import Any, Callable, Dict, Hashable

from repro.consensus.interfaces import ConsensusProtocol

# Client callback: (instance_number, decided_value) -> None.  The client
# must call :meth:`ConsensusSequence.advance_to` with its next instance
# number before the callback returns.
OrderedDecisionHandler = Callable[[int, Any], None]


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
    def propose(self, instance: int, value: Hashable) -> None:
        """Propose in ``instance`` (must be the client's current one)."""
        self.consensus.propose(instance, value)

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
        if instance < self.current:
            return  # stale duplicate
        self._buffer[instance] = value
        if not self._flushing:
            self._flush()

    def _flush(self) -> None:
        """Release buffered decisions while they match the cursor.

        The client's callback advances the cursor synchronously (to
        ``max(ts)+1`` in A1), so the loop naturally walks the group's —
        possibly non-contiguous — instance sequence.
        """
        self._flushing = True
        try:
            while self.current in self._buffer:
                instance = self.current
                value = self._buffer.pop(instance)
                self.on_decide(instance, value)
                if self.current == instance:
                    # Client did not advance; stop instead of spinning.
                    break
        finally:
            self._flushing = False
        if self._set_floor is not None:
            self._set_floor(self.current)
