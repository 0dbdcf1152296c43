"""Public interfaces of the consensus substrate.

The paper (Section 2.2) assumes a **uniform consensus** abstraction
inside every group, with:

* uniform integrity — a decided value was proposed by some process;
* termination — every correct process eventually decides exactly once;
* uniform agreement — if any process decides v, all correct processes
  decide v.

Both A1 and A2 run an ordered *sequence* of consensus instances per
group, where the instance number doubles as the group's logical clock
(A1) or round number (A2).  Instance numbers are monotone but, in A1,
not contiguous: after deciding instance k the group jumps to
``max(decided timestamps, k) + 1``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

# A decision callback: (instance_number, decided_value) -> None.
DecisionHandler = Callable[[int, Any], None]


class ConsensusProtocol:
    """Interface implemented by :class:`repro.consensus.paxos.GroupConsensus`."""

    def propose(self, instance: int, value: Hashable) -> None:
        """Propose ``value`` in ``instance``.

        At most one proposal per instance per process; the value must be
        hashable plain data (tuples of primitives) so it can travel in
        message payloads and be compared for idempotence, and not
        ``None``.
        """
        raise NotImplementedError

    def set_decision_handler(self, handler: DecisionHandler) -> None:
        """Install the (single) callback invoked on each local decision."""
        raise NotImplementedError

    def decided(self, instance: int) -> bool:
        """True when this process has locally decided ``instance``."""
        raise NotImplementedError
