"""Vicente & Rodrigues [13] — sequencer-based uniform atomic broadcast.

The original assigns every process a *sequencer* that numbers the
messages that process broadcasts; processes deliver optimistically on
receiving a sequence number and deliver finally ("uniformly") once the
number has been validated by a majority.

Our implementation keeps the measured profile of the paper's Figure 1b
row — final-delivery latency degree 2 and O(n²) messages — with the
following concrete shape:

1. the caster sends m to **all** processes (hop 1);
2. the caster's sequencer (the lowest-pid member of its group, so
   sequencing adds no inter-group hop) assigns m the next sequence
   number of that caster and broadcasts SEQ (arrives hop 2);
3. every process, upon *receiving m itself* (hop 1), echoes an ACK to
   all (arrives hop 2) — the majority-validation traffic;
4. a process optimistically delivers m in sequence order when SEQ
   arrives, and **finally delivers** once it also holds ACKs from a
   majority — both conditions resolve at hop 2, hence degree 2.

Simplification (documented in DESIGN.md): sequencer fail-over is not
implemented — the baseline exists for the failure-free Figure 1b
comparison.  The latency meter records final deliveries.

Global order: sequence numbers are totalised as (sequencer-emission
index per sequencer, merged deterministically).  With one sequencer per
group, the delivery order is the merge of per-sequencer streams; we
realise the merge with a global round-robin over sequencers, padding
with explicit no-op announcements when a sequencer has nothing — the
standard trick to keep deterministic merges live.  To keep runs finite
the no-op padding is *demand driven*: a sequencer announces an empty
slot only when another sequencer's slot at the same index exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.interfaces import (
    AppMessage,
    AtomicBroadcast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.process import Process


class SequencerBroadcast(AtomicBroadcast):
    """One process's endpoint of the [13]-style baseline."""

    def __init__(
        self,
        process: Process,
        topology: Topology,
        detector: FailureDetector,
        namespace: str = "seqb",
    ) -> None:
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)
        # One sequencer per group: its lowest pid.
        self.sequencers = [topology.members(g)[0] for g in topology.group_ids]
        self.my_sequencer = topology.members(self.my_gid)[0]
        self.i_am_sequencer = process.pid == self.my_sequencer

        self._majority = topology.n_processes // 2 + 1
        self._next_slot = 0  # sequencer-local emission index
        # Sequenced slots: (sequencer pid, slot index) -> mid or None.
        self._slots: Dict[Tuple[int, int], Optional[str]] = {}
        self._acks: Dict[str, Set[int]] = {}
        self._have_data: Set[str] = set()
        self._optimistic: List[str] = []
        self._cursor = (0, 0)  # (slot index, sequencer rank) merge cursor
        self._announced_noop: Set[int] = set()
        self._max_seen_index = -1  # largest slot index any sequencer emitted
        self._handler: Optional[DeliveryHandler] = None

        process.register_handler(f"{self.ns}.data", self._on_data)
        process.register_handler(f"{self.ns}.seq", self._on_seq)
        process.register_handler(f"{self.ns}.ack", self._on_ack)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    @property
    def optimistic_deliveries(self) -> List[str]:
        """Message ids optimistically delivered (pre-validation)."""
        return list(self._optimistic)

    def a_bcast(self, msg: AppMessage) -> None:
        """Send m to everyone; the sequencer copy rides the same send."""
        self.catalog.intern(msg)
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
        # Validation echo: O(n²) traffic, resolves at hop 2.
        self.process.send_many(self.topology.processes, f"{self.ns}.ack",
                               {"mid": msg.mid})
        # The caster's group's sequencer numbers the message.
        sender_gid = self.topology.group_of(msg.sender)
        if self.process.pid == self.topology.members(sender_gid)[0]:
            slot = self._next_slot
            self._next_slot += 1
            self.process.send_many(
                self.topology.processes, f"{self.ns}.seq",
                {"seq_pid": self.process.pid, "slot": slot,
                 "mid": msg.mid},
            )

    def _on_seq(self, netmsg: Message) -> None:
        key = (netmsg.payload["seq_pid"], netmsg.payload["slot"])
        self._slots.setdefault(key, netmsg.payload["mid"])
        if netmsg.payload["mid"] is not None:
            self._max_seen_index = max(self._max_seen_index,
                                       netmsg.payload["slot"])
        self._merge()

    def _on_ack(self, netmsg: Message) -> None:
        mid = netmsg.payload["mid"]
        self._acks.setdefault(mid, set()).add(netmsg.src)
        self._merge()

    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Deliver sequenced slots in deterministic merge order.

        Slots are consumed round-robin over sequencers by slot index.
        A sequencer that has emitted slot i for some i' > index being
        waited on would stall the merge; sequencers therefore announce
        no-op slots on demand (see module docstring).  In this
        single-slot-at-a-time regime the practical rule is simpler: a
        slot is deliverable when every *earlier* (index, rank) slot of
        every sequencer is either delivered or known-empty.
        """
        while True:
            index, rank = self._cursor
            key = (self.sequencers[rank], index)
            if key not in self._slots:
                # Demand-driven no-op: if any sequencer already emitted
                # this index or later, the missing sequencer announces
                # an empty slot.  Only the sequencer itself may do so.
                if self._should_emit_noop(key):
                    self._emit_noop(index)
                return
            mid = self._slots[key]
            if mid is not None:
                msg = self.catalog.get(mid)
                if msg.mid not in self._optimistic:
                    self._optimistic.append(msg.mid)
                if len(self._acks.get(msg.mid, ())) < self._majority:
                    return  # not yet validated by a majority
                if self._handler is None:
                    raise RuntimeError("no A-Deliver handler installed")
                self._handler(msg)
            del self._slots[key]
            rank += 1
            if rank == len(self.sequencers):
                rank = 0
                index += 1
            self._cursor = (index, rank)

    def _should_emit_noop(self, waiting_key: Tuple[int, int]) -> bool:
        seq_pid, index = waiting_key
        if seq_pid != self.process.pid:
            return False
        if index in self._announced_noop or index < self._next_slot:
            return False
        # Another sequencer has reached this index: fill our gap.
        return self._max_seen_index >= index

    def _emit_noop(self, index: int) -> None:
        self._announced_noop.add(index)
        self._next_slot = max(self._next_slot, index + 1)
        self.process.send_many(
            self.topology.processes, f"{self.ns}.seq",
            {"seq_pid": self.process.pid, "slot": index, "mid": None},
        )
