"""Public API of the atomic multicast / broadcast layer.

An :class:`AppMessage` is what applications cast: an id, the casting
process, the destination *groups* (paper Section 2.2 addresses groups,
not processes), and an opaque hashable payload.

Protocols deliver through a single callback installed with
``set_delivery_handler``, one call per batch of messages an endpoint
delivers at one instant (an A2 round, or one A1 message); the
experiment runtime wires that callback to the delivery log and the
latency meter.

Hot-path note: protocol payloads and consensus values do not carry
encoded message bodies.  Every cast is interned once in the
per-simulation :class:`~repro.net.message.MessageCatalog` (re-exported
here) — by the system that records it, or else by the endpoint that
casts it — and from then on only the compact ``mid`` travels;
receivers resolve it with ``catalog.get(mid)``.  ``to_wire`` /
``from_wire`` remain as the explicit encoding for anything that leaves
the simulation (traces, persisted results).
"""

from __future__ import annotations

import sys
import types
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Any, Callable, List, Sequence, Tuple

from repro.clocks.latency import normalised
from repro.net.message import MessageCatalog

__all__ = [
    "AppMessage", "AtomicMulticast", "AtomicBroadcast", "DeliveryHandler",
    "MessageCatalog",
    "STAGE_S0", "STAGE_S1", "STAGE_S2", "STAGE_S3",
]

#: ``dataclass`` options giving instances ``__slots__`` where the running
#: Python supports it (3.10+): one message is kept per cast of a run.
SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


def frozen_rows(cls, *columns: Sequence) -> list:
    """Instances of the frozen dataclass ``cls``, one per row of
    ``columns`` (one column per field, in field order), made without
    running ``__init__`` or ``__post_init__``: the caller vouches for
    every value.

    Each field is set by one C-level pass over the rows: through the
    field's slot where ``cls`` has slots, else through
    ``object.__setattr__`` (CPython 3.9, where :data:`SLOTTED` is
    empty).  The instances are ``==``, hash and order exactly as ones
    built through ``cls(...)`` with the same values.
    """
    rows = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for field, values in zip(fields(cls), columns):
        slot = cls.__dict__.get(field.name)
        if isinstance(slot, types.MemberDescriptorType):
            deque(map(slot.__set__, rows, values), 0)
        else:
            deque(map(object.__setattr__, rows, repeat(field.name),
                      values), 0)
    return rows


@dataclass(frozen=True, order=True, **SLOTTED)
class AppMessage:
    """One application-level message.

    A message made one at a time (``AppMessage(...)``) has its
    ``dest_groups`` normalised by :func:`normalised`.  A cast plan makes
    its messages in one pass (:meth:`from_columns`): each distinct
    destination tuple is normalised once, and each message is equal to
    the one the constructor would have made in its place.

    Attributes:
        mid: Message identifier, unique within its run; also the
            total-order tiebreaker the protocols use.  A built system
            mints ids from its simulation's catalog
            (:meth:`~repro.net.message.MessageCatalog.mint`), so a run's
            ids do not depend on what ran before it in the process.
            They compare as text: mint order below 10⁶ casts per run,
            and past that still one deterministic total order.
        sender: Pid of the casting process.
        dest_groups: Sorted tuple of destination group ids.
        payload: Opaque hashable application data.
    """

    mid: str
    sender: int
    dest_groups: Tuple[int, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        dest = normalised(self.dest_groups)
        if dest is not self.dest_groups:
            object.__setattr__(self, "dest_groups", dest)

    def to_wire(self) -> tuple:
        """Encode as plain data for message payloads/consensus values."""
        return (self.mid, self.sender, self.dest_groups, self.payload)

    @classmethod
    def from_wire(cls, wire: tuple) -> "AppMessage":
        """Decode :meth:`to_wire` output."""
        mid, sender, dest_groups, payload = wire
        return cls(mid=mid, sender=sender,
                   dest_groups=tuple(dest_groups), payload=payload)

    @classmethod
    def from_columns(cls, mids: Sequence[str], senders: Sequence[int],
                     dest_groups: Sequence[Tuple[int, ...]],
                     payloads: Sequence[Any]) -> List["AppMessage"]:
        """One message per row of the aligned columns, in one pass.

        Trusted: every ``dest_groups`` entry must already be
        :func:`normalised` (a plan normalises each distinct tuple
        once), since nothing here checks it.
        """
        return frozen_rows(cls, mids, senders, dest_groups, payloads)


#: A-Deliver callback: the messages one endpoint delivers at one
#: instant, in delivery order — a whole A2 round, or a one-message tuple
#: (A1, the baselines).  One call per batch; never empty.
DeliveryHandler = Callable[[Sequence[AppMessage]], None]


class AtomicMulticast:
    """Interface of genuine atomic multicast endpoints (Algorithm A1)."""

    def a_mcast(self, msg: AppMessage) -> None:
        """Atomically multicast ``msg`` to ``msg.dest_groups``."""
        raise NotImplementedError

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        """Install the (single) A-Deliver callback."""
        raise NotImplementedError


class AtomicBroadcast:
    """Interface of atomic broadcast endpoints (Algorithm A2)."""

    def a_bcast(self, msg: AppMessage) -> None:
        """Atomically broadcast ``msg`` to every group."""
        raise NotImplementedError

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        """Install the (single) A-Deliver callback."""
        raise NotImplementedError


# Message stages of Algorithm A1 (paper Section 4.1).
STAGE_S0 = 0  # timestamp being defined by each destination group
STAGE_S1 = 1  # group proposals being exchanged
STAGE_S2 = 2  # group clock catching up to the final timestamp
STAGE_S3 = 3  # final timestamp known; awaiting delivery order
