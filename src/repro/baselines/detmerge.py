"""Aguilera & Strom [1] — atomic broadcast by deterministic merge.

The strong-model baseline of the paper's Figure 1: links are reliable,
publishers never crash and (conceptually) publish infinitely many
messages.  Every process is a publisher that emits a stream of *slots*;
subscribers apply the same deterministic merge — ascending slot index,
ties broken by publisher pid — so no agreement protocol is needed at
all.  Delivery of a slot needs the same-index slot of **every**
publisher, which arrives one direct hop after emission: latency degree
1, one message per (publisher, subscriber) pair per slot — O(n) per
application message, the cheapest row of Figure 1b.

Finite-run adaptation (documented in DESIGN.md): real [1] streams are
infinite.  We drive slots with a fixed emission period (:data:`SLOT_PERIOD`)
and let a publisher with nothing to say emit an explicit empty slot —
but only while some other publisher still has traffic in flight, so a
finite workload produces a finite run.  Concretely, each process keeps
emitting slots until it has seen every publisher's slot for the highest
index carrying a real message, then stops: the simulation quiesces.

This adaptation weakens nothing the Figure 1 comparison relies on — in
the infinite-traffic regime every slot is one hop and the merge delay
the paper analyses is our slot period.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.interfaces import (
    AppMessage,
    AtomicBroadcast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.process import Process

#: Virtual time between slot emissions; the merge delay of [1] is
#: bounded by this plus one hop.
SLOT_PERIOD = 0.5


class DeterministicMergeBroadcast(AtomicBroadcast):
    """One process's endpoint of the [1]-style baseline."""

    def __init__(
        self,
        process: Process,
        topology: Topology,
        namespace: str = "dmrg",
    ) -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.catalog = MessageCatalog.of(process.sim)
        self._records = self.catalog.record_map

        self._outbox: List[str] = []         # mids waiting for a slot
        self._my_next_slot = 0
        self._slots: Dict[Tuple[int, int], list] = {}  # (pub, idx) -> mids
        self._cursor = (0, 0)                # (index, publisher rank)
        self._max_real_index = -1            # highest index with a message
        self._ticking = False
        self._handler: Optional[DeliveryHandler] = None
        process.register_handler(f"{self.ns}.slot", self._on_slot)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_bcast(self, msg: AppMessage) -> None:
        """Queue m for our next slot; start the slot clock if idle."""
        rec = self._records.get(msg.mid)
        if rec is None or rec.msg is not msg:
            self.catalog.intern(msg)  # not cast through a System
        self._outbox.append(msg.mid)
        self._ensure_ticking(immediate=True)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _ensure_ticking(self, immediate: bool = False) -> None:
        if self._ticking or self.process.crashed:
            return
        self._ticking = True
        delay = 0.0 if immediate else SLOT_PERIOD
        self.process.sim.schedule(delay, self._tick, label=f"{self.ns}.tick")

    def _tick(self) -> None:
        self._ticking = False
        if self.process.crashed:
            return
        index = self._my_next_slot
        self._my_next_slot += 1
        mids = list(self._outbox)
        self._outbox.clear()
        self.process.send_many(
            self.topology.processes, f"{self.ns}.slot",
            {"pub": self.process.pid, "index": index, "mids": mids},
        )
        if self._behind_real_traffic():
            self._ensure_ticking()

    def _behind_real_traffic(self) -> bool:
        """Keep emitting while real messages still need merging."""
        return (self._outbox
                or self._my_next_slot <= self._max_real_index
                or self._cursor[0] <= self._max_real_index)

    # ------------------------------------------------------------------
    # Subscribing / merging
    # ------------------------------------------------------------------
    def _on_slot(self, netmsg: Message) -> None:
        key = (netmsg.payload["pub"], netmsg.payload["index"])
        mids = netmsg.payload["mids"]
        self._slots.setdefault(key, mids)
        if mids:
            self._max_real_index = max(self._max_real_index,
                                       netmsg.payload["index"])
            # Someone published real traffic: we must emit matching
            # slots so every subscriber's merge can pass this index.
            self._ensure_ticking()
        self._merge()

    def _merge(self) -> None:
        publishers = self.topology.processes  # ascending pid = rank order
        while True:
            index, rank = self._cursor
            key = (publishers[rank], index)
            if key not in self._slots:
                return
            for mid in sorted(self._slots.pop(key)):
                msg = self.catalog.get(mid)
                if self._handler is None:
                    raise RuntimeError("no A-Deliver handler installed")
                self._handler((msg,))
            rank += 1
            if rank == len(publishers):
                rank, index = 0, index + 1
            self._cursor = (index, rank)
            if self._behind_real_traffic():
                self._ensure_ticking()
