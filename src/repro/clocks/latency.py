"""Per-message latency accounting.

:class:`LatencyMeter` records, for every application message, the Lamport
timestamp and virtual time of its cast (A-MCast / A-BCast) and of each
delivery.  From those it computes:

* the **latency degree** ``Δ(m, R)`` of paper Section 2.3 — the maximum,
  over delivering processes, of ``ts(A-Deliver(m)) - ts(A-XCast(m))``;
* the wall (virtual-time) delivery latency, both worst-case and mean.

A built system writes its records from each endpoint's delivery
callback (``System.install_endpoint``) and shares the table with its
:class:`~repro.runtime.results.DeliveryLog`; :meth:`record_cast` and
:meth:`record_delivery` serve standalone meters.

A record's ``delivery_time`` map is copy-on-write and shared: a
delivery never changes a map in place, it replaces the record's map
with a successor made by :class:`DeliveryMaps`.  Every record starts
from the one empty :data:`NO_DELIVERIES`, and the successor is
memoised per delivering process, so the messages a process delivers
together at one instant — a whole A2 round — keep one map between
them, not one each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


#: The map every record starts from.  Shared by every record, so never
#: written: see :class:`DeliveryMaps`.
NO_DELIVERIES: Dict[int, float] = {}


class DeliveryMaps:
    """The one rule by which a record's ``delivery_time`` changes.

    No map is changed in place.  ``pid``'s delivery at ``now`` replaces
    a record's map ``before`` with ``{**before, pid: now}``, and the
    successor is memoised per pid on (the ``before`` object, ``now``).
    When a process delivers a batch at one instant, every message of
    the batch whose map was shared before gets the same successor: an
    A2 round's messages hold one map per round, and a map read from a
    record stays as it was whatever is delivered later.  A pid that
    delivers twice keeps its one key, in first-delivery order, with
    the later time.

    ``System.install_endpoint`` inlines this rule in its delivery
    callback; :meth:`LatencyMeter.record_delivery` and
    :meth:`DeliveryLog.record_delivery
    <repro.runtime.results.DeliveryLog.record_delivery>` call it.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        #: pid -> (predecessor map, instant, successor map).
        self._last: Dict[int, tuple] = {}

    def after(self, before: Dict[int, float], pid: int,
              now: float) -> Dict[int, float]:
        """The map that replaces ``before`` on ``pid``'s delivery."""
        last = self._last.get(pid)
        if last is not None and last[0] is before and last[1] == now:
            return last[2]
        successor = {**before, pid: now}
        self._last[pid] = (before, now, successor)
        return successor


class MessageRecord:
    """The one per-message delivery record of a run.

    It owns everything per message that the latency measures and the
    property checkers need, and nothing per process beyond that:

    * ``cast_pid`` / ``cast_lamport`` / ``cast_time`` and
      ``dest_groups`` (the cast message's own sorted tuple);
    * ``delivery_time`` — pid → virtual time of its A-Deliver.  Its keys,
      in first-delivery order, *are* the message's deliverer set: the
      checkers and :meth:`DeliveryLog.deliveries_of
      <repro.runtime.results.DeliveryLog.deliveries_of>` read them in
      place.  A pid that delivers twice keeps one key (its per-pid
      sequence in the log shows the repeat).  The map is shared with
      the other messages delivered in the same batches and is never
      changed in place: each delivery replaces it (:class:`DeliveryMaps`),
      so read it freely, and never write it;
    * ``max_delivery_lamport`` — the running maximum of the delivery
      stamps, so :attr:`latency_degree` is O(1).  A process's stamps
      only grow, so it is the maximum over every delivery recorded.
    """

    __slots__ = ("msg_id", "cast_pid", "cast_lamport", "cast_time",
                 "dest_groups", "delivery_time", "max_delivery_lamport")

    def __init__(self, msg_id: str) -> None:
        self.msg_id = msg_id
        self.cast_pid: Optional[int] = None
        self.cast_lamport: Optional[int] = None
        self.cast_time: Optional[float] = None
        self.dest_groups: tuple = ()
        self.delivery_time: Dict[int, float] = NO_DELIVERIES
        self.max_delivery_lamport: Optional[int] = None

    def add_delivery(self, pid: int, lamport: int, time: float,
                     maps: DeliveryMaps) -> None:
        """Record ``pid``'s A-Deliver at Lamport stamp ``lamport``;
        ``maps`` makes the record's new ``delivery_time`` map."""
        self.delivery_time = maps.after(self.delivery_time, pid, time)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MessageRecord({self.msg_id!r}, cast_time={self.cast_time}, "
                f"deliverers={list(self.delivery_time)})")


class LatencyMeter:
    """Collects cast/delivery events and derives latency statistics."""

    def __init__(self,
                 records: Optional[Dict[str, MessageRecord]] = None) -> None:
        #: msg id -> record; a built system shares it with its log.
        self._records: Dict[str, MessageRecord] = (
            {} if records is None else records)
        self._maps = DeliveryMaps()

    def _record(self, msg_id: str) -> MessageRecord:
        rec = self._records.get(msg_id)
        if rec is None:
            rec = self._records[msg_id] = MessageRecord(msg_id)
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
        groups = tuple(sorted(dest_groups))
        # An AppMessage's tuple is sorted already: keep it, not a copy.
        rec.dest_groups = dest_groups if groups == dest_groups else groups

    def record_delivery(self, msg_id: str, process: "Process", now: float = 0.0) -> None:
        """Record an A-Deliver event of ``msg_id`` on ``process``."""
        self._record(msg_id).add_delivery(
            process.pid, process.lamport.local_event(), now, self._maps)

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
