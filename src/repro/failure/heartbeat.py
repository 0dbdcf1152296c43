"""A real, message-based eventually-perfect failure detector.

The default detectors in :mod:`repro.failure.detectors` are oracles —
they answer suspicion queries from ground truth, which keeps protocol
message counts clean for the Figure 1 comparisons (the paper's own
methodology: its substrate costs come from oracle-based consensus and
reliable broadcast).

This module is the opt-in realistic alternative: every process
periodically sends heartbeats to its group; an observer suspects a peer
once no heartbeat arrived for ``timeout``.  With quasi-reliable links
and bounded (simulated) delays this implements ◊P within a group:

* *strong completeness* — a crashed process stops heartbeating and is
  eventually suspected by every correct observer;
* *eventual strong accuracy* — here delays are bounded by the latency
  model, so a timeout above the worst intra-group delay plus the
  heartbeat period yields no false suspicions after startup.

Heartbeat copies travel the network as ``fd.hb`` messages.  A single
*coalesced timer per group* drives every member's beat (all members
beat at the same virtual instants anyway, so one kernel event per group
per period replaces one per process per period).

Heartbeats run until ``horizon`` (forever when None), so a system using
this detector is **not quiescent** unless a horizon is set — run it
with ``sim.run(until=...)``, or call :meth:`stop` (which cancels the
outstanding group timers so draining is immediate).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.kernel import Simulator

#: Kind of every heartbeat copy; failure-traffic meters read it.
HB_KIND = "fd.hb"


class HeartbeatFailureDetector(FailureDetector):
    """Group-scoped heartbeat detector for every registered process."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        topology: Topology,
        period: float = 10.0,
        timeout: float = 35.0,
        horizon: Optional[float] = None,
    ) -> None:
        """Start heartbeating on every process of the network.

        Args:
            period: Gap between a process's heartbeats.
            timeout: Silence after which a peer is suspected.  Must
                exceed ``period`` plus the worst intra-group delay or
                correct processes will be falsely suspected forever.
            horizon: Virtual time after which heartbeating ceases.
                Lets finite workloads reach quiescence without an
                explicit :meth:`stop` call.
        """
        if timeout <= period:
            raise ValueError("timeout must exceed the heartbeat period")
        self.sim = sim
        self.network = network
        self.topology = topology
        self.period = period
        self.timeout = timeout
        self.horizon = horizon
        self._running = True
        # last_seen[observer][peer] = virtual time of last heartbeat.
        self._last_seen: Dict[int, Dict[int, float]] = {}
        # One cancellable timer per group.
        self._timers: Dict[int, object] = {}
        self._peers: Dict[int, Tuple[int, ...]] = {
            pid: tuple(p for p in topology.members(topology.group_of(pid))
                       if p != pid)
            for pid in topology.processes
        }
        # What every beat of a process sends, built once: the payload
        # dict is shared by the copies of one send anyway.
        self._beat = {pid: {"from": pid} for pid in topology.processes}
        for process in network.processes():
            self._last_seen[process.pid] = {
                peer: sim.now for peer in self._peers[process.pid]
            }
            process.register_handler(HB_KIND,
                                     self._make_on_hb(process.pid))
        for gid in topology.group_ids:
            self._schedule_group_beat(gid, initial=True)

    # ------------------------------------------------------------------
    # One coalesced timer per group
    # ------------------------------------------------------------------
    def _schedule_group_beat(self, gid: int, initial: bool = False) -> None:
        delay = 0.0 if initial else self.period
        if self.horizon is not None and self.sim.now + delay > self.horizon:
            self._timers.pop(gid, None)
            return
        self._timers[gid] = self.sim.schedule(
            delay, lambda: self._group_beat(gid), label="fd.beat")

    def _group_beat(self, gid: int) -> None:
        """One period tick: every live member of ``gid`` heartbeats.

        Members beat in pid order, exactly the order the old
        per-process timers fired in (they were scheduled in pid order at
        identical instants), so coalescing changes no delivery
        interleaving — it only removes kernel events.
        """
        if not self._running:
            return
        alive = False
        for pid in self.topology.members(gid):
            process = self.network.process(pid)
            if process.crashed:
                continue
            alive = True
            peers = self._peers[pid]
            if peers:
                process.send_many(peers, HB_KIND, self._beat[pid])
        if alive:
            self._schedule_group_beat(gid)
        else:
            # Every member crashed: the group's timer dies with it.
            self._timers.pop(gid, None)

    def _make_on_hb(self, observer: int):
        def on_hb(msg: Message) -> None:
            self._last_seen[observer][msg.payload["from"]] = self.sim.now

        return on_hb

    def stop(self) -> None:
        """Cease all heartbeating and cancel outstanding beat timers.

        Cancelling (rather than letting the pending beats fire as
        no-ops) means ``run_until_quiescent`` drains immediately: a
        stopped detector contributes zero future events.  Copies
        already in flight still arrive.
        """
        self._running = False
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # FailureDetector interface
    # ------------------------------------------------------------------
    def suspects(self, querying_pid: int, target_pid: int) -> bool:
        if querying_pid == target_pid:
            return False
        seen = self._last_seen.get(querying_pid, {})
        if target_pid not in seen:
            # Outside the observer's group: heartbeats don't cover it;
            # fall back to "not suspected" (the paper's protocols only
            # consult detectors within cohorts).
            return False
        return self.sim.now - seen[target_pid] > self.timeout

    def last_heartbeat(self, observer: int, peer: int) -> Optional[float]:
        """When ``observer`` last heard ``peer`` (None outside its group)."""
        return self._last_seen.get(observer, {}).get(peer)

    @property
    def pending_timers(self) -> int:
        """Live beat timers (0 after :meth:`stop` or the horizon)."""
        return len(self._timers)
