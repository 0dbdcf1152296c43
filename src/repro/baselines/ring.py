"""Delporte-Gallet & Fauconnier [4] — ring-based genuine atomic multicast.

The destination groups of a message, sorted by group id, form a ring:
the first group runs (intra-group) consensus to assign the message a
timestamp and hands it to the second group, which raises the timestamp
and hands it on, until the last group fixes the **final** timestamp and
sends it back to every destination group.  To avoid delivery-order
cycles, a group handles one message at a time: it blocks until it sees
the final timestamp of the message it last handled (the paper's "final
acknowledgment from group gk").

Cost profile (paper Figure 1a): latency degree proportional to the
number of destination groups k (the handoffs are sequential), against
O(k·d²) inter-group messages — *cheaper* in messages than A1's O(k²d²)
but k/2 times slower.  This tradeoff is exactly what the paper's related
work section discusses.

Safety note: a group's timestamp assignments carry a **floor** inside
the consensus value — one more than the largest final timestamp the
proposer has seen — so a message assigned after another's finalisation
is guaranteed the larger timestamp.  Delivery then follows (final, id)
order, with assigned-but-unfinalised entries acting as blockers at
their assignment timestamp (a lower bound on their final).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.consensus.paxos import GroupConsensus
from repro.consensus.sequence import ConsensusSequence
from repro.core.interfaces import (
    AppMessage,
    AtomicMulticast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.process import Process


@dataclass
class _RingEntry:
    """A message this group has assigned a timestamp to."""

    msg: AppMessage
    ts: int
    final: bool = False


class RingMulticast(AtomicMulticast):
    """One process's endpoint of the [4] baseline."""

    def __init__(
        self,
        process: Process,
        topology: Topology,
        detector: FailureDetector,
        retry_timeout: float = 50.0,
        namespace: str = "ring",
    ) -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)

        self.prop_k = 1
        self.floor = 0          # one past the largest final ts seen
        self.current: Optional[str] = None  # message we are blocked on
        self.pending: Dict[str, int] = {}  # mid -> ts_in
        self.entries: Dict[str, _RingEntry] = {}
        self.delivered: Set[str] = set()
        self._handler: Optional[DeliveryHandler] = None

        self.consensus = GroupConsensus(
            process, topology.members(self.my_gid), detector,
            retry_timeout=retry_timeout, namespace=f"{self.ns}.cons",
        )
        self.sequence = ConsensusSequence(
            self.consensus, self._on_decided, first_instance=1
        )
        process.register_handler(f"{self.ns}.data", self._on_data)
        process.register_handler(f"{self.ns}.handoff", self._on_handoff)
        process.register_handler(f"{self.ns}.final", self._on_final)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_mcast(self, msg: AppMessage) -> None:
        """Send m to every process of the *first* destination group."""
        self.catalog.intern(msg)
        first_gid = min(msg.dest_groups)
        self.process.send_many(
            self.topology.members(first_gid), f"{self.ns}.data",
            {"mid": msg.mid, "ts": 0},
        )

    # ------------------------------------------------------------------
    # Ring input
    # ------------------------------------------------------------------
    def _on_data(self, netmsg: Message) -> None:
        self._enqueue(netmsg.payload["mid"], netmsg.payload["ts"])

    def _on_handoff(self, netmsg: Message) -> None:
        self._enqueue(netmsg.payload["mid"], netmsg.payload["ts"])

    def _enqueue(self, mid: str, ts_in: int) -> None:
        if mid in self.entries or mid in self.delivered or mid in self.pending:
            return
        self.pending[mid] = ts_in
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Group serialisation via consensus
    # ------------------------------------------------------------------
    def _maybe_propose(self) -> None:
        if self.current is not None or not self.pending:
            return  # blocked on an in-flight message, or nothing to do
        if self.prop_k > self.sequence.current:
            return
        mid = min(self.pending)  # deterministic choice
        ts_in = self.pending[mid]
        self.sequence.propose(
            self.sequence.current, (mid, ts_in, self.floor)
        )
        self.prop_k = self.sequence.current + 1

    def _on_decided(self, instance: int, value: tuple) -> None:
        mid, ts_in, floor = value
        msg = self.catalog.get(mid)
        self.pending.pop(msg.mid, None)
        assigned = max(ts_in, instance, floor)
        self.sequence.advance_to(assigned + 1)
        if msg.mid in self.delivered or msg.mid in self.entries:
            self._maybe_propose()
            return
        ring = sorted(msg.dest_groups)
        is_last = ring[-1] == self.my_gid
        entry = _RingEntry(msg=msg, ts=assigned, final=is_last)
        self.entries[msg.mid] = entry
        if is_last:
            # We fix the final timestamp; tell the other groups.
            self.floor = max(self.floor, assigned + 1)
            others = [g for g in ring if g != self.my_gid]
            if others:
                self.process.send_many(
                    self.topology.processes_of_groups(others),
                    f"{self.ns}.final",
                    {"mid": msg.mid, "ts": assigned},
                )
            self._try_deliver()
            self._maybe_propose()
        else:
            # Hand over to the next group and block until the final.
            self.current = msg.mid
            next_gid = ring[ring.index(self.my_gid) + 1]
            self.process.send_many(
                self.topology.members(next_gid), f"{self.ns}.handoff",
                {"mid": msg.mid, "ts": assigned},
            )

    def _on_final(self, netmsg: Message) -> None:
        mid = netmsg.payload["mid"]
        ts = netmsg.payload["ts"]
        self.floor = max(self.floor, ts + 1)
        entry = self.entries.get(mid)
        if entry is None:
            if mid in self.delivered:
                return
            entry = _RingEntry(msg=self.catalog.get(mid), ts=ts)
            self.entries[mid] = entry
        if not entry.final:
            entry.ts = ts
            entry.final = True
        if self.current == mid:
            self.current = None  # the paper's "final acknowledgment"
        self._try_deliver()
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _try_deliver(self) -> None:
        while True:
            finals = [e for e in self.entries.values() if e.final]
            if not finals:
                return
            head = min(finals, key=lambda e: (e.ts, e.msg.mid))
            blocked = any(
                (e.ts, e.msg.mid) < (head.ts, head.msg.mid)
                for e in self.entries.values() if not e.final
            )
            if blocked:
                return
            del self.entries[head.msg.mid]
            self.delivered.add(head.msg.mid)
            if self._handler is None:
                raise RuntimeError("no A-Deliver handler installed")
            self._handler(head.msg)
