"""Skeen's atomic multicast (Birman & Joseph [2]), decentralised form.

The algorithm the paper's optimality corollary is about: designed for
failure-free systems, messages are timestamped with Lamport clocks and
delivered in timestamp order.

We implement the decentralised variant the paper's analysis assumes:

1. the caster sends m to every addressee (one hop);
2. every addressee assigns m a proposal from its local logical clock
   and sends the proposal to every *other* addressee (one hop);
3. m's final timestamp is the maximum proposal; a process delivers m
   once the final timestamp is known and no other known message can
   still obtain a smaller (timestamp, id) pair.

Latency degree 2 — which Section 3 of the paper proves optimal for
genuine multicast, making 25-year-old Skeen latency-optimal ("a result
apparently left unnoticed for more than 20 years").

No fault tolerance: a crash of any addressee blocks delivery.  The
baseline exists for the optimality corollary and the Figure 1a
comparison, both of which are failure-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.interfaces import (
    AppMessage,
    AtomicMulticast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.process import Process


@dataclass
class _Entry:
    """Per-message Skeen state on one process."""

    msg: AppMessage
    own_proposal: Optional[int] = None
    proposals: Dict[int, int] = None
    final_ts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.proposals is None:
            self.proposals = {}


class SkeenMulticast(AtomicMulticast):
    """One process's endpoint of decentralised Skeen."""

    def __init__(self, process: Process, topology: Topology,
                 namespace: str = "skeen") -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)
        self.clock = 0  # Skeen's per-process logical clock
        self.entries: Dict[str, _Entry] = {}
        self.delivered: Set[str] = set()
        self._handler: Optional[DeliveryHandler] = None
        process.register_handler(f"{self.ns}.data", self._on_data)
        process.register_handler(f"{self.ns}.propose", self._on_propose)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_mcast(self, msg: AppMessage) -> None:
        self.catalog.intern(msg)
        dest = self.topology.processes_of_groups(msg.dest_groups)
        self.process.send_many(dest, f"{self.ns}.data", {"mid": msg.mid})

    # ------------------------------------------------------------------
    def _entry(self, msg: AppMessage) -> _Entry:
        if msg.mid not in self.entries:
            self.entries[msg.mid] = _Entry(msg=msg)
        return self.entries[msg.mid]

    def _on_data(self, netmsg: Message) -> None:
        msg = self.catalog.get(netmsg.payload["mid"])
        entry = self._entry(msg)
        if entry.msg.sender == -1:
            entry.msg = msg  # replace the proposal-only stub
        if entry.own_proposal is not None:
            return  # duplicate
        self.clock += 1
        entry.own_proposal = self.clock
        entry.proposals[self.process.pid] = self.clock
        dest = self.topology.processes_of_groups(msg.dest_groups)
        others = [p for p in dest if p != self.process.pid]
        if others:
            self.process.send_many(
                others, f"{self.ns}.propose",
                {"mid": msg.mid, "ts": self.clock},
            )
        self._try_finalise(entry)

    def _on_propose(self, netmsg: Message) -> None:
        mid = netmsg.payload["mid"]
        entry = self.entries.get(mid)
        if entry is None:
            # Proposal outran the data copy; remember it under a stub.
            entry = _Entry(msg=AppMessage(mid=mid, sender=-1,
                                          dest_groups=()))
            self.entries[mid] = entry
        entry.proposals[netmsg.src] = netmsg.payload["ts"]
        self._try_finalise(entry)

    def _try_finalise(self, entry: _Entry) -> None:
        if entry.own_proposal is None or entry.final_ts is not None:
            return  # data not seen yet, or already final
        dest = set(self.topology.processes_of_groups(entry.msg.dest_groups))
        if set(entry.proposals) >= dest:
            entry.final_ts = max(entry.proposals.values())
            self.clock = max(self.clock, entry.final_ts)
        self._try_deliver()

    # ------------------------------------------------------------------
    def _try_deliver(self) -> None:
        """Deliver final messages that no pending message can precede."""
        while True:
            candidate = self._deliverable()
            if candidate is None:
                return
            del self.entries[candidate.msg.mid]
            self.delivered.add(candidate.msg.mid)
            if self._handler is None:
                raise RuntimeError("no A-Deliver handler installed")
            self._handler(candidate.msg)

    def _deliverable(self) -> Optional[_Entry]:
        final_entries = [e for e in self.entries.values()
                         if e.final_ts is not None]
        if not final_entries:
            return None
        head = min(final_entries, key=lambda e: (e.final_ts, e.msg.mid))
        # A non-final entry's final timestamp will be at least its own
        # proposal (the final is a max over proposals), so the proposal
        # is a sound lower bound.  Entries we only know from a remote
        # proposal (own_proposal None) are bounded by that proposal.
        for entry in self.entries.values():
            if entry is head or entry.final_ts is not None:
                continue
            known = list(entry.proposals.values())
            bound = min(known) if known else None
            if bound is None:
                continue  # nothing known yet; cannot block (no data seen)
            if (bound, entry.msg.mid) < (head.final_ts, head.msg.mid):
                return None
        return head
