"""Per-message latency accounting.

:class:`LatencyMeter` records, for every application message, the Lamport
timestamp and virtual time of its cast (A-MCast / A-BCast) and of each
delivery.  From those it computes:

* the **latency degree** ``Δ(m, R)`` of paper Section 2.3 — the maximum,
  over delivering processes, of ``ts(A-Deliver(m)) - ts(A-XCast(m))``;
* the wall (virtual-time) delivery latency, both worst-case and mean.

Protocol implementations call :meth:`record_cast` at the A-XCast event
and :meth:`record_delivery` at each A-Deliver event, passing the casting
or delivering process so the meter can read its Lamport clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


@dataclass
class MessageRecord:
    """Everything the meter knows about one application message.

    Deliveries are written only through :meth:`add_delivery`, which
    keeps ``max_delivery_lamport``, the running maximum of the delivery
    stamps; :attr:`latency_degree` reads it, so it is O(1) however often
    reports and extractors ask.  A process's stamps only grow, so the
    running maximum equals the maximum over ``delivery_lamport`` even
    when a process delivers twice.
    """

    msg_id: str
    cast_pid: Optional[int] = None
    cast_lamport: Optional[int] = None
    cast_time: Optional[float] = None
    dest_groups: tuple = ()
    delivery_lamport: Dict[int, int] = field(default_factory=dict)
    delivery_time: Dict[int, float] = field(default_factory=dict)
    max_delivery_lamport: Optional[int] = None

    def add_delivery(self, pid: int, lamport: int, time: float) -> None:
        """Record ``pid``'s A-Deliver at Lamport stamp ``lamport``."""
        self.delivery_lamport[pid] = lamport
        self.delivery_time[pid] = time
        top = self.max_delivery_lamport
        if top is None or lamport > top:
            self.max_delivery_lamport = lamport

    @property
    def latency_degree(self) -> Optional[int]:
        """``Δ(m, R)`` over the deliveries recorded so far."""
        if self.cast_lamport is None or self.max_delivery_lamport is None:
            return None
        return self.max_delivery_lamport - self.cast_lamport

    @property
    def worst_delivery_latency(self) -> Optional[float]:
        """Max virtual-time delay from cast to delivery."""
        if self.cast_time is None or not self.delivery_time:
            return None
        return max(t - self.cast_time for t in self.delivery_time.values())

    @property
    def mean_delivery_latency(self) -> Optional[float]:
        """Mean virtual-time delay from cast to delivery."""
        if self.cast_time is None or not self.delivery_time:
            return None
        delays = [t - self.cast_time for t in self.delivery_time.values()]
        return sum(delays) / len(delays)


class LatencyMeter:
    """Collects cast/delivery events and derives latency statistics."""

    def __init__(self) -> None:
        self._records: Dict[str, MessageRecord] = {}

    def _record(self, msg_id: str) -> MessageRecord:
        rec = self._records.get(msg_id)
        if rec is None:
            rec = self._records[msg_id] = MessageRecord(msg_id=msg_id)
        return rec

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def record_cast(
        self, msg_id: str, process: "Process", dest_groups=(), now: float = 0.0
    ) -> None:
        """Record the A-XCast event of ``msg_id`` on ``process``."""
        rec = self._record(msg_id)
        rec.cast_pid = process.pid
        rec.cast_lamport = process.lamport.local_event()
        rec.cast_time = now
        rec.dest_groups = tuple(sorted(dest_groups))

    def record_delivery(self, msg_id: str, process: "Process", now: float = 0.0) -> None:
        """Record an A-Deliver event of ``msg_id`` on ``process``."""
        rec = self._records.get(msg_id)  # _record, inlined: per delivery
        if rec is None:
            rec = self._records[msg_id] = MessageRecord(msg_id=msg_id)
        rec.add_delivery(process.pid, process.lamport.local_event(), now)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record_for(self, msg_id: str) -> Optional[MessageRecord]:
        """Return the record for ``msg_id`` if any event was seen."""
        return self._records.get(msg_id)

    def records(self) -> List[MessageRecord]:
        """All records, in message-id order (deterministic)."""
        return [self._records[k] for k in sorted(self._records)]

    def latency_degree(self, msg_id: str) -> Optional[int]:
        """Convenience accessor for ``Δ(m, R)`` of one message."""
        rec = self._records.get(msg_id)
        return rec.latency_degree if rec else None

    def degrees(self) -> Dict[str, Optional[int]]:
        """Map of message id to latency degree."""
        return {k: r.latency_degree for k, r in sorted(self._records.items())}

    def max_degree(self) -> Optional[int]:
        """The largest latency degree across fully delivered messages."""
        degrees = [r.latency_degree for r in self._records.values()
                   if r.latency_degree is not None]
        return max(degrees) if degrees else None

    def min_degree(self) -> Optional[int]:
        """The smallest latency degree across fully delivered messages."""
        degrees = [r.latency_degree for r in self._records.values()
                   if r.latency_degree is not None]
        return min(degrees) if degrees else None
