"""Non-genuine atomic multicast: broadcast to everyone, filter locally.

The paper's introduction describes the trivial reduction of atomic
multicast to atomic broadcast: A-BCast every message to *all* groups and
let processes outside ``m.dest`` discard it.  Running on top of
Algorithm A2 this achieves latency degree 1 — beating every genuine
multicast (lower bound 2) — but drags every process in the system into
every message, which is exactly what genuineness forbids and what the
message-complexity columns of the tradeoff experiment quantify.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.abcast import AtomicBroadcastA2
from repro.core.interfaces import AppMessage, AtomicMulticast, DeliveryHandler


class NonGenuineMulticast(AtomicMulticast):
    """Multicast-over-broadcast endpoint (deliberately non-genuine)."""

    def __init__(self, abcast: AtomicBroadcastA2) -> None:
        """Wrap an Algorithm A2 endpoint.

        The wrapped endpoint must not have a delivery handler installed;
        this class installs the filtering handler itself.
        """
        self.abcast = abcast
        self.my_gid = abcast.my_gid
        #: Broadcast deliveries discarded because this process was not
        #: an addressee — the per-process waste genuineness eliminates.
        self.discarded_deliveries = 0
        self._handler = None
        abcast.set_delivery_handler(self._on_adeliver)

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_mcast(self, msg: AppMessage) -> None:
        """Broadcast system-wide; the destination set rides along."""
        if not msg.dest_groups:
            raise ValueError("message must address at least one group")
        self.abcast.a_bcast(msg)

    def start_rounds(self) -> None:
        """Warm up the underlying broadcast rounds (see A2)."""
        self.abcast.start_rounds()

    def _on_adeliver(self, msgs: Sequence[AppMessage]) -> None:
        """Pass on the round's messages that address this group."""
        gid = self.my_gid
        mine = tuple(msg for msg in msgs if gid in msg.dest_groups)
        self.discarded_deliveries += len(msgs) - len(mine)
        if not mine:
            return
        if self._handler is None:
            raise RuntimeError("no A-Deliver handler installed")
        self._handler(mine)
