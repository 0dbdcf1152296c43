"""The run's one record per message, and the latency read from it.

A :class:`MessageRecord` is a message's entry in its run's
:class:`~repro.net.message.MessageCatalog`: the cast
:class:`~repro.core.interfaces.AppMessage` itself, the Lamport stamp
and virtual time of its cast (A-MCast / A-BCast) and of its deliveries.
The catalog's table, mid → record, is the run's only per-message table:
a built system's :class:`~repro.runtime.results.DeliveryLog` and
:class:`LatencyMeter` read that very dict.  Each event has one writer:
``System.record_cast`` stamps a cast, and a delivery is written by the
delivery callback of ``System.install_endpoint`` (a built system) or
by :meth:`DeliveryLog.record_delivery
<repro.runtime.results.DeliveryLog.record_delivery>` (a log fed by
hand).  From the records :class:`LatencyMeter` reads:

* the **latency degree** ``Δ(m, R)`` of paper Section 2.3 — the maximum,
  over delivering processes, of ``ts(A-Deliver(m)) - ts(A-XCast(m))``;
* the wall (virtual-time) delivery latency, both worst-case and mean.

A record's ``delivery_time`` map is copy-on-write and shared: a
delivery never changes a map in place.  ``pid``'s delivery at ``now``
replaces a record's map ``before`` with ``{**before, pid: now}``, and
each writer memoises that successor per pid on (``before``, ``now``).
Every record starts from the one empty :data:`NO_DELIVERIES`, so the
messages a process delivers together at one instant — a whole A2 round
— keep one map between them, not one each, and a map read from a record
stays as it was whatever is delivered later.  A pid that delivers twice
keeps its one key, in first-delivery order, with the later time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def normalised(dest_groups) -> Tuple[int, ...]:
    """``dest_groups`` as a sorted, duplicate-free tuple; a tuple that
    already is one is returned itself, so messages share it."""
    if type(dest_groups) is tuple:
        prev = None
        for gid in dest_groups:
            if prev is not None and gid <= prev:
                break
            prev = gid
        else:
            return dest_groups
    return tuple(sorted(set(dest_groups)))


#: The map every record starts from.  Shared by every record, so never
#: written (see the module docstring).
NO_DELIVERIES: Dict[int, float] = {}


class MessageRecord:
    """A message's entry in its run's catalog.

    It owns everything per message that the latency measures and the
    property checkers need, and nothing per process beyond that:

    * ``msg`` — the cast message, or None for a mid that a hand-fed log
      delivered but never cast;
    * ``cast_lamport`` / ``cast_time`` — the cast's stamp and instant;
    * ``delivery_time`` — pid → virtual time of its A-Deliver.  Its keys,
      in first-delivery order, *are* the message's deliverer set: the
      checkers and :meth:`DeliveryLog.deliveries_of
      <repro.runtime.results.DeliveryLog.deliveries_of>` read them in
      place.  A pid that delivers twice keeps one key (its per-pid
      sequence in the log shows the repeat).  The map is shared with
      the other messages delivered in the same batches and is never
      changed in place (see the module docstring), so read it freely,
      and never write it;
    * ``max_delivery_lamport`` — the running maximum of the delivery
      stamps, so :attr:`latency_degree` is O(1).  A process's stamps
      only grow, so it is the maximum over every delivery recorded.
    """

    __slots__ = ("msg", "cast_lamport", "cast_time", "delivery_time",
                 "max_delivery_lamport")

    def __init__(self, msg) -> None:
        self.msg = msg
        self.cast_lamport: Optional[int] = None
        self.cast_time: Optional[float] = None
        self.delivery_time: Dict[int, float] = NO_DELIVERIES
        self.max_delivery_lamport: Optional[int] = None

    @property
    def dest_groups(self) -> Tuple[int, ...]:
        """The cast message's sorted destination groups."""
        return self.msg.dest_groups

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
        return (f"MessageRecord({self.msg!r}, cast_time={self.cast_time}, "
                f"deliverers={list(self.delivery_time)})")


class LatencyMeter:
    """Latency queries over a run's record table, read in place."""

    __slots__ = ("record_map",)

    def __init__(self, record_map: Dict[str, MessageRecord]) -> None:
        #: mid -> record: the run's catalog table (see the module).
        self.record_map = record_map

    def record_for(self, msg_id: str) -> Optional[MessageRecord]:
        """Return the record for ``msg_id`` if any event was seen."""
        return self.record_map.get(msg_id)

    def records(self) -> List[MessageRecord]:
        """All records, in message-id order (deterministic)."""
        return [self.record_map[k] for k in sorted(self.record_map)]

    def latency_degree(self, msg_id: str) -> Optional[int]:
        """Convenience accessor for ``Δ(m, R)`` of one message."""
        rec = self.record_map.get(msg_id)
        return rec.latency_degree if rec else None

    def degrees(self) -> Dict[str, Optional[int]]:
        """Map of message id to latency degree."""
        return {k: r.latency_degree
                for k, r in sorted(self.record_map.items())}
