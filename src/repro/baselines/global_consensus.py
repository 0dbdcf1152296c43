"""Rodrigues, Guerraoui & Schiper [10] — multicast via cross-group consensus.

Per message m:

1. the caster sends m to every addressee (one hop);
2. every addressee timestamps m from its logical clock and sends the
   proposal to every other addressee (one hop);
3. once a process holds proposals from the addressees it runs a
   consensus instance **spanning all destination groups** on the
   maximum proposal — the paper's reason this protocol is "not well
   suited for wide area networks": the consensus itself crosses groups,
   adding two more inter-group delays (its latency degree is 2);
4. the decided value is m's final timestamp; delivery follows
   (final timestamp, id) order with the usual pending-proposal blockers.

Measured profile (paper Figure 1a): latency degree 4, O(k²d²)
inter-group messages.

Simplification (documented in DESIGN.md): step 3 waits for proposals
from *all* addressees rather than a majority of each group.  The
original's majority variant needs an extra mechanism to keep one's own
proposal a lower bound of the decided timestamp; waiting for all makes
that immediate and only strengthens the (failure-free, best-case)
Figure 1a comparison this baseline exists for.  Fault tolerance in the
consensus step itself is retained (it is quorum-based Paxos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.consensus.paxos import GroupConsensus
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
class _Entry:
    """Per-message state."""

    msg: AppMessage
    own_proposal: Optional[int] = None
    proposals: Dict[int, int] = field(default_factory=dict)
    final_ts: Optional[int] = None
    proposed_to_consensus: bool = False


class GlobalConsensusMulticast(AtomicMulticast):
    """One process's endpoint of the [10] baseline."""

    def __init__(
        self,
        process: Process,
        topology: Topology,
        detector: FailureDetector,
        retry_timeout: float = 50.0,
        namespace: str = "glob",
    ) -> None:
        self.process = process
        self.topology = topology
        self.detector = detector
        self.retry_timeout = retry_timeout
        self.ns = namespace
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)
        self._records = self.catalog.record_map
        self.clock = 0
        self.entries: Dict[str, _Entry] = {}
        self.delivered: Set[str] = set()
        # One consensus stack per destination-set cohort, created lazily;
        # instances within a stack are keyed by message id (the Paxos
        # machinery never does arithmetic on instance keys).
        self._cohorts: Dict[tuple, GroupConsensus] = {}
        self._handler: Optional[DeliveryHandler] = None
        process.register_handler(f"{self.ns}.data", self._on_data)
        process.register_handler(f"{self.ns}.ts", self._on_ts)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_mcast(self, msg: AppMessage) -> None:
        rec = self._records.get(msg.mid)
        if rec is None or rec.msg is not msg:
            self.catalog.intern(msg)  # not cast through a System
        dest = self.topology.processes_of_groups(msg.dest_groups)
        self.process.send_many(dest, f"{self.ns}.data",
                               {"mid": msg.mid})

    # ------------------------------------------------------------------
    def _cohort(self, dest_groups: tuple) -> GroupConsensus:
        """The cross-group consensus stack for this destination set."""
        key = tuple(sorted(dest_groups))
        if key not in self._cohorts:
            members = self.topology.processes_of_groups(key)
            tag = "-".join(str(g) for g in key)
            stack = GroupConsensus(
                self.process, members, self.detector,
                retry_timeout=self.retry_timeout,
                namespace=f"{self.ns}.cons{tag}",
            )
            stack.set_decision_handler(self._on_consensus_decision)
            self._cohorts[key] = stack
        return self._cohorts[key]

    # ------------------------------------------------------------------
    def _on_data(self, netmsg: Message) -> None:
        msg = self.catalog.get(netmsg.payload["mid"])
        entry = self.entries.get(msg.mid)
        if entry is None:
            entry = _Entry(msg=msg)
            self.entries[msg.mid] = entry
        if entry.own_proposal is not None or msg.mid in self.delivered:
            return
        self.clock += 1
        entry.own_proposal = self.clock
        entry.proposals[self.process.pid] = self.clock
        dest = self.topology.processes_of_groups(msg.dest_groups)
        others = [p for p in dest if p != self.process.pid]
        if others:
            self.process.send_many(others, f"{self.ns}.ts",
                                   {"mid": msg.mid, "ts": self.clock})
        self._maybe_run_consensus(entry)

    def _on_ts(self, netmsg: Message) -> None:
        msg = self.catalog.get(netmsg.payload["mid"])
        entry = self.entries.get(msg.mid)
        if entry is None:
            entry = _Entry(msg=msg)
            self.entries[msg.mid] = entry
        entry.proposals[netmsg.src] = netmsg.payload["ts"]
        self._maybe_run_consensus(entry)

    def _maybe_run_consensus(self, entry: _Entry) -> None:
        if entry.proposed_to_consensus or entry.final_ts is not None:
            return
        if entry.own_proposal is None:
            return
        dest = set(self.topology.processes_of_groups(entry.msg.dest_groups))
        if set(entry.proposals) < dest:
            return
        entry.proposed_to_consensus = True
        final = max(entry.proposals.values())
        self._cohort(entry.msg.dest_groups).propose(
            entry.msg.mid, (entry.msg.mid, final)
        )

    def _on_consensus_decision(self, mid: str, value: tuple) -> None:
        decided_mid, final = value
        msg = self.catalog.get(decided_mid)
        entry = self.entries.get(mid)
        if entry is None:
            entry = _Entry(msg=msg)
            self.entries[mid] = entry
        if mid in self.delivered:
            return
        entry.final_ts = final
        self.clock = max(self.clock, final)
        self._try_deliver()

    # ------------------------------------------------------------------
    def _try_deliver(self) -> None:
        while True:
            finals = [e for e in self.entries.values()
                      if e.final_ts is not None]
            if not finals:
                return
            head = min(finals, key=lambda e: (e.final_ts, e.msg.mid))
            # Non-final entries block at their smallest known proposal:
            # the decided timestamp is the max over *all* addressees'
            # proposals, so any single proposal is a lower bound.
            for entry in self.entries.values():
                if entry.final_ts is not None:
                    continue
                known = list(entry.proposals.values())
                if not known:
                    continue
                if (min(known), entry.msg.mid) < (head.final_ts, head.msg.mid):
                    return
            del self.entries[head.msg.mid]
            self.delivered.add(head.msg.mid)
            if self._handler is None:
                raise RuntimeError("no A-Deliver handler installed")
            self._handler((head.msg,))
