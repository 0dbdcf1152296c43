"""Public API of the atomic multicast / broadcast layer.

An :class:`AppMessage` is what applications cast: an id, the casting
process, the destination *groups* (paper Section 2.2 addresses groups,
not processes), and an opaque hashable payload.

Protocols deliver through a single callback installed with
``set_delivery_handler``; the experiment runtime wires that callback to
the delivery log and the latency meter.

Hot-path note: protocol payloads and consensus values do not carry
encoded message bodies.  Every endpoint interns the message it casts in
the per-simulation :class:`~repro.net.message.MessageCatalog`
(re-exported here) and from then on only the compact ``mid`` travels;
receivers resolve it with ``catalog.get(mid)``.  ``to_wire`` /
``from_wire`` remain as the explicit encoding for anything that leaves
the simulation (traces, persisted results).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.net.message import MessageCatalog

__all__ = [
    "AppMessage", "AtomicMulticast", "AtomicBroadcast", "DeliveryHandler",
    "MessageCatalog",
    "STAGE_S0", "STAGE_S1", "STAGE_S2", "STAGE_S3",
]

_APP_IDS = itertools.count()

#: ``dataclass`` options giving instances ``__slots__`` where the running
#: Python supports it (3.10+): one message is kept per cast of a run.
SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, order=True, **SLOTTED)
class AppMessage:
    """One application-level message.

    Attributes:
        mid: Unique message identifier; also the total-order tiebreaker
            the protocols use, so it must be globally unique.
        sender: Pid of the casting process.
        dest_groups: Sorted tuple of destination group ids.
        payload: Opaque hashable application data.
    """

    mid: str
    sender: int
    dest_groups: Tuple[int, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        dest = self.dest_groups
        if type(dest) is tuple:
            prev = None
            for gid in dest:
                if prev is not None and gid <= prev:
                    break
                prev = gid
            else:
                return  # sorted and free of duplicates: keep (and share) it
        object.__setattr__(self, "dest_groups", tuple(sorted(set(dest))))

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
    def fresh(cls, sender: int, dest_groups, payload: Any = None,
              mid: Optional[str] = None) -> "AppMessage":
        """Create a message with an auto-generated unique id."""
        if mid is None:
            mid = f"m{next(_APP_IDS):06d}"
        return cls(mid=mid, sender=sender,
                   dest_groups=tuple(dest_groups), payload=payload)


# Delivery callback: the delivered AppMessage.
DeliveryHandler = Callable[[AppMessage], None]


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
