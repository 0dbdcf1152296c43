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

Two execution modes share identical observable semantics:

* ``mode="messages"`` — real heartbeat copies travel the network.  A
  single *coalesced timer per group* drives every member's beat (all
  members beat at the same virtual instants anyway, so one kernel event
  per group per period replaces one per process per period).
* ``mode="elided"`` — the analytic fast path: no timers, no messages,
  no kernel events.  Suspicion answers are derived on demand from the
  observed crash times (via crash hooks) and the fixed intra-group link
  delay, reproducing exactly the ``last_seen`` values the message-driven
  mode would have recorded.  Failure-detector traffic is pure overhead
  in crash-free executions, so large-n runs get it for free.

:mod:`repro.failure.harness` asserts the two modes produce bit-identical
suspicion transitions and protocol delivery orders on crash scenarios.

Message-driven heartbeats run until ``horizon`` (forever when None), so
systems using that mode are **not quiescent** unless a horizon is set —
run them with ``sim.run(until=...)``, or call :meth:`stop` (which
cancels the outstanding group timers so draining is immediate).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.kernel import Simulator

MODES = ("messages", "elided")


class HeartbeatFailureDetector(FailureDetector):
    """Group-scoped heartbeat detector for every registered process."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        topology: Topology,
        period: float = 10.0,
        timeout: float = 35.0,
        namespace: str = "fd",
        mode: str = "messages",
        horizon: Optional[float] = None,
    ) -> None:
        """Start heartbeating on every process of the network.

        Args:
            period: Gap between a process's heartbeats.
            timeout: Silence after which a peer is suspected.  Must
                exceed ``period`` plus the worst intra-group delay or
                correct processes will be falsely suspected forever.
            mode: ``"messages"`` (real heartbeat traffic, one coalesced
                timer per group) or ``"elided"`` (analytic, zero
                traffic; requires fixed intra-group link delays).
            horizon: Virtual time after which heartbeating ceases (both
                modes).  Lets finite workloads reach quiescence without
                an explicit :meth:`stop` call.
        """
        if timeout <= period:
            raise ValueError("timeout must exceed the heartbeat period")
        if mode not in MODES:
            raise ValueError(f"unknown heartbeat mode {mode!r}; "
                             f"pick one of {MODES}")
        self.sim = sim
        self.network = network
        self.topology = topology
        self.period = period
        self.timeout = timeout
        self.ns = namespace
        self.mode = mode
        self.horizon = horizon
        self._running = True
        self._stopped_at: Optional[float] = None
        self._epoch = sim.now  # first beat instant (k = 0)
        # last_seen[observer][peer] = virtual time of last heartbeat
        # (message mode only; elided mode computes it analytically).
        self._last_seen: Dict[int, Dict[int, float]] = {}
        # One cancellable timer per group (message mode).
        self._timers: Dict[int, object] = {}
        # Observed crash instants (elided mode), via crash hooks so any
        # crash mechanism — schedule or direct crash() — is captured.
        self._crash_at: Dict[int, float] = {}
        # Fixed intra-group delay per group (elided mode).
        self._intra_delay: Dict[int, float] = {}
        self._peers: Dict[int, Tuple[int, ...]] = {
            pid: tuple(p for p in topology.members(topology.group_of(pid))
                       if p != pid)
            for pid in topology.processes
        }
        # What every beat of a process sends, built once: the payload
        # dict is shared by the copies of one send anyway.
        self._k_hb = f"{namespace}.hb"
        self._beat = {pid: {"from": pid} for pid in topology.processes}
        if mode == "messages":
            self._init_messages()
        else:
            self._init_elided()

    # ------------------------------------------------------------------
    # Message-driven mode: one coalesced timer per group
    # ------------------------------------------------------------------
    def _init_messages(self) -> None:
        for process in self.network.processes():
            self._last_seen[process.pid] = {
                peer: self.sim.now for peer in self._peers[process.pid]
            }
            process.register_handler(self._k_hb,
                                     self._make_on_hb(process.pid))
        for gid in self.topology.group_ids:
            self._schedule_group_beat(gid, initial=True)

    def _schedule_group_beat(self, gid: int, initial: bool = False) -> None:
        delay = 0.0 if initial else self.period
        if self.horizon is not None and self.sim.now + delay > self.horizon:
            self._timers.pop(gid, None)
            return
        self._timers[gid] = self.sim.schedule(
            delay, lambda: self._group_beat(gid), label=f"{self.ns}.beat")

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
                process.send_many(peers, self._k_hb, self._beat[pid])
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
        stopped detector contributes zero future events.  The elided
        mode records the stop instant and caps its analytic beats
        there, so both modes fall silent — and start suspecting
        everyone — at the same virtual time.
        """
        self._running = False
        if self._stopped_at is None:
            self._stopped_at = self.sim.now
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # Elided mode: suspicion derived from crash times + link delay
    # ------------------------------------------------------------------
    def _init_elided(self) -> None:
        latency = self.network.latency
        for gid in self.topology.group_ids:
            delay = latency.fixed_delay(gid, gid)
            if delay is None:
                raise ValueError(
                    "elided heartbeat mode needs a fixed intra-group "
                    f"link delay, but group {gid}'s is sampled; use "
                    "mode='messages' under jittered intra-group latency"
                )
            self._intra_delay[gid] = delay
        for process in self.network.processes():
            pid = process.pid
            if process.crashed:
                self._crash_at[pid] = self.sim.now
            else:
                process.add_crash_hook(
                    lambda pid=pid: self._crash_at.setdefault(
                        pid, self.sim.now))

    def _beats_until(self, limit: float, *, strict: bool) -> int:
        """Index of the last beat at time < limit (<= when not strict)."""
        k = (limit - self._epoch) / self.period
        if strict:
            return math.ceil(k) - 1
        return math.floor(k)

    def _analytic_last_seen(self, observer: int, peer: int) -> float:
        """The ``last_seen`` value message mode would hold right now.

        Beat k fires at ``epoch + k*period`` and its copies arrive one
        fixed intra-group delay later.  The arrival counted is the
        latest one that (a) has happened, (b) the peer was still alive
        to send (a crash at the exact beat instant preempts the beat:
        crash events are scheduled earlier, so they fire first), and
        (c) the observer was still alive to receive (same tie rule).
        """
        now = self.sim.now
        d = self._intra_delay[self.topology.group_of(peer)]
        k = math.floor((now - self._epoch - d) / self.period)
        crash_peer = self._crash_at.get(peer)
        if crash_peer is not None:
            k = min(k, self._beats_until(crash_peer, strict=True))
        crash_obs = self._crash_at.get(observer)
        if crash_obs is not None:
            k = min(k, self._beats_until(crash_obs - d, strict=True))
        if self.horizon is not None:
            k = min(k, self._beats_until(self.horizon, strict=False))
        if self._stopped_at is not None:
            # Beats up to the stop instant happened (message mode's
            # in-flight copies still arrive after stop); later ones
            # were cancelled.
            k = min(k, self._beats_until(self._stopped_at, strict=False))
        if k < 0:
            return self._epoch
        return self._epoch + k * self.period + d

    # ------------------------------------------------------------------
    # FailureDetector interface
    # ------------------------------------------------------------------
    def suspects(self, querying_pid: int, target_pid: int) -> bool:
        if querying_pid == target_pid:
            return False
        if self.mode == "elided":
            if target_pid not in self._peers.get(querying_pid, ()):
                # Outside the observer's group: heartbeats don't cover
                # it; fall back to "not suspected" (the paper's
                # protocols only consult detectors within cohorts).
                return False
            last = self._analytic_last_seen(querying_pid, target_pid)
            return self.sim.now - last > self.timeout
        seen = self._last_seen.get(querying_pid, {})
        if target_pid not in seen:
            return False
        return self.sim.now - seen[target_pid] > self.timeout

    def last_heartbeat(self, observer: int, peer: int) -> Optional[float]:
        """Diagnostic accessor used by tests and the harness."""
        if self.mode == "elided":
            if peer not in self._peers.get(observer, ()):
                return None
            return self._analytic_last_seen(observer, peer)
        return self._last_seen.get(observer, {}).get(peer)

    @property
    def pending_timers(self) -> int:
        """Live beat timers (0 in elided mode / after :meth:`stop`)."""
        return len(self._timers)
