"""Sousa, Pereira, Moura & Oliveira [12] — optimistic total order.

A non-uniform atomic broadcast for wide area networks: the caster sends
m directly to all processes, which **optimistically deliver** it on
receipt (exploiting the spontaneous total order that WAN delay
compensation makes likely) — latency degree 1.  The **final** delivery
order is fixed by a lightweight sequencer whose ORDER announcement
arrives one hop later — latency degree 2.

The paper's Figure 1b charges this protocol degree 2 (final delivery)
and O(n) messages (one DATA copy per process plus one ORDER copy per
process; no quadratic validation traffic) and footnotes that it is
non-uniform: the agreement property holds for correct processes only.
Our implementation mirrors that: there is no majority validation, so a
process that final-delivers and crashes may have delivered a message no
one else does — allowed by non-uniform agreement, flagged by the
uniform checker (a test asserts exactly this distinction).

The sequencer is the lowest pid; fail-over is out of scope (the paper
compares best-case, failure-free behaviour).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.interfaces import (
    AppMessage,
    AtomicBroadcast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.process import Process


class OptimisticBroadcast(AtomicBroadcast):
    """One process's endpoint of the [12]-style baseline."""

    def __init__(self, process: Process, topology: Topology,
                 namespace: str = "opt") -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.sequencer = topology.processes[0]
        self.i_am_sequencer = process.pid == self.sequencer
        self.catalog = MessageCatalog.of(process.sim)
        self._records = self.catalog.record_map

        self._next_seq = 0          # sequencer-side counter
        self._orders: Dict[int, str] = {}   # seq -> mid
        self._have_data: Set[str] = set()
        self._next_deliver = 0      # final-delivery cursor
        self._optimistic: List[str] = []
        self._handler: Optional[DeliveryHandler] = None
        process.register_handler(f"{self.ns}.data", self._on_data)
        process.register_handler(f"{self.ns}.order", self._on_order)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    @property
    def optimistic_deliveries(self) -> List[str]:
        """Message ids optimistically delivered, in receipt order."""
        return list(self._optimistic)

    def a_bcast(self, msg: AppMessage) -> None:
        rec = self._records.get(msg.mid)
        if rec is None or rec.msg is not msg:
            self.catalog.intern(msg)  # not cast through a System
        self.process.send_many(
            self.topology.processes, f"{self.ns}.data",
            {"mid": msg.mid},
        )

    # ------------------------------------------------------------------
    def _on_data(self, netmsg: Message) -> None:
        msg = self.catalog.get(netmsg.payload["mid"])
        if msg.mid in self._have_data:
            return
        self._have_data.add(msg.mid)
        self._optimistic.append(msg.mid)  # optimistic delivery, degree 1
        if self.i_am_sequencer:
            seq = self._next_seq
            self._next_seq += 1
            self.process.send_many(
                self.topology.processes, f"{self.ns}.order",
                {"seq": seq, "mid": msg.mid},
            )
        self._try_final()

    def _on_order(self, netmsg: Message) -> None:
        self._orders.setdefault(netmsg.payload["seq"], netmsg.payload["mid"])
        self._try_final()

    def _try_final(self) -> None:
        """Final delivery strictly in sequencer order."""
        while self._next_deliver in self._orders:
            mid = self._orders.pop(self._next_deliver)
            self._next_deliver += 1
            msg = self.catalog.get(mid)
            if self._handler is None:
                raise RuntimeError("no A-Deliver handler installed")
            self._handler((msg,))
