"""A self-stabilizing retransmitting transport over lossy links.

The lossy adversary kinds (``drop``/``duplicate``/``corrupt``) break the
quasi-reliable link axiom the paper's protocols assume.  This module
restores it *beneath* them — and restores no more than it: quasi-
reliable links promise that every copy between correct processes
arrives, never that copies arrive in send order (§2.1), so the shape is
selective repeat with release on arrival (Aspnes' sliding-window
framing; Dolev et al.'s stabilizing communication over unreliable
non-FIFO channels).  Per-link sequence numbers, a checksum per copy,
cumulative-plus-selective acknowledgements driving per-frame
retransmission with exponential backoff and jitter, and a dedup window
on the receiver — so each covered copy is released to the protocol
handler **exactly once, in any order**, the instant its first intact
copy arrives, no matter what the channel did to it.  A lost frame
delays only itself: nothing queues behind the gap.  Once the channel
faults stop (the injectors' ``until`` horizon), every outstanding frame
drains and the event queue quiesces with all properties green — the
stabilization property :mod:`repro.checkers.stabilization` asserts.

"Self-stabilizing" here has that weaker meaning: the transport starts
from its initial state (every window empty, every sequence at zero),
and the claim is that it *drains* once the channel faults stop at
``until``.  Dolev et al. mean more: convergence from an *arbitrary*
state — corrupted sequence numbers, windows and timers included.  That
stronger property is neither claimed nor tested here.

Wire format
-----------
The transport does not change message kinds or payloads — protocol
copies keep both, so traces, per-kind statistics and the genuineness
checker observe the same traffic shape as an unmounted run.  Instead,
every covered copy carries a per-copy frame word on the
:class:`~repro.net.message.Message` envelope itself:
``msg.wire = (seq << 8) | checksum``, where the 8-bit checksum covers
``(src, dst, seq)``.  Riding the envelope rather than the (shared)
payload dict keeps the hot send path allocation-free — a fan-out of N
copies sequences N integers instead of building per-send header maps —
and gives the corrupt injector a per-copy field to damage without
cloning payloads.  Corruption is *modeled*, not bit-flipped: the
injector XORs a non-zero mask into the checksum byte of one copy's
frame word (simulated frame damage), and a receiver discards any copy
whose checksum fails — so with the transport mounted, corruption
degrades to loss, which retransmission already handles, and without it
a corrupted copy is dropped at the link layer (``_deliver``'s filter
path), which is exactly how real link CRCs behave.

Acknowledgements travel as their own ``tsp.ack`` kind (never wrapped,
so no ack-of-ack regress), delayed and coalesced per link: one pending
ack timer per link batches a burst of arrivals into a single cumulative
ack carrying the sorted set of sequences seen above the watermark as a
SACK list — the NACK signal.  Gaps below the highest SACKed sequence
trigger immediate (fast) retransmission; a lazy per-link timer covers
everything else, including lost acks: it resends only the frames whose
own timeout has passed and re-arms for the earliest remaining one.

Failure semantics: retransmission to a destination stops only when that
destination has *actually* crashed (simulation ground truth, the same
rule the network's own delivery path applies) — never on mere failure-
detector suspicion, because a wrong suspicion under an eventually
perfect detector must not break the quasi-reliable promise between two
correct processes.  Failure-detection traffic (``fd.*``) bypasses the
transport entirely: heartbeats must feel the raw link, or loss could
never be told from death.
"""

from __future__ import annotations

import random
from typing import Dict, Set, Tuple

#: Kind of acknowledgement messages (bypasses sequencing; see `covers`).
ACK_KIND = "tsp.ack"

#: Payload key of an ack: ``(cumulative, sack_tuple)``.
_ACK_BODY = "_tsa"


def _checksum(src: int, dst: int, seq: int) -> int:
    """8-bit header checksum over the link identity and sequence."""
    return ((seq * 2654435761) ^ (src * 7919) ^ (dst * 104729)) & 0xFF


class TransportStats:
    """Counters over everything the transport did in one run."""

    __slots__ = ("wrapped_sends", "data_copies", "retransmits",
                 "fast_retransmits", "acks_sent", "dup_suppressed",
                 "corrupt_detected", "out_of_order", "released",
                 "abandoned")

    def __init__(self) -> None:
        self.wrapped_sends = 0      # logical sends wrapped
        self.data_copies = 0        # sequenced first-transmission copies
        self.retransmits = 0        # timer-driven re-sends
        self.fast_retransmits = 0   # SACK-gap-driven re-sends
        self.acks_sent = 0
        self.dup_suppressed = 0     # copies discarded by the dedup window
        self.corrupt_detected = 0   # copies discarded on checksum failure
        self.out_of_order = 0       # frames released ahead of a gap
        self.released = 0           # frames dispatched upward (exactly once)
        self.abandoned = 0          # frames given up on (destination crashed)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"TransportStats({inner})"


class _SendLink:
    """Sender-side state of one directed (src, dst) link."""

    __slots__ = ("next_seq", "unacked", "rto", "min_gap", "backoff",
                 "timer_armed", "salt")

    def __init__(self, rto: float, min_gap: float, salt: int) -> None:
        self.next_seq = 0
        # seq -> (kind, body, last_sent_at); insertion order == seq
        # order because seqs are assigned monotonically.
        self.unacked: Dict[int, Tuple[str, dict, float]] = {}
        self.rto = rto            # base retransmission timeout
        self.min_gap = min_gap    # fast-retransmit damping interval
        self.backoff = 0          # exponent, reset on ack progress
        self.timer_armed = False
        # The link-identity half of _checksum, precomputed: the hot
        # paths fold only the sequence number per copy.
        self.salt = salt


class _RecvLink:
    """Receiver-side state of one directed (src, dst) link."""

    __slots__ = ("next_seq", "seen", "ack_armed", "salt")

    def __init__(self, salt: int) -> None:
        # Cumulative watermark: every seq below it has been released.
        self.next_seq = 0
        # Seqs released above the watermark (dedup + the SACK list);
        # drains into next_seq as the gaps below them fill.
        self.seen: Set[int] = set()
        self.ack_armed = False
        self.salt = salt


class ReliableTransport:
    """Per-link sequencing, acks, retransmission and dedup (see module)."""

    #: Backoff factor per fruitless retransmission round, and its cap.
    BACKOFF_FACTOR = 2.0
    MAX_BACKOFF_EXP = 3
    #: Jitter fraction added to each rescheduled retransmission timer.
    JITTER = 0.25

    def __init__(self, sim, network, rng: random.Random) -> None:
        self.sim = sim
        self.network = network
        self.rng = rng
        self._stats = TransportStats()
        try:
            base = network.latency.min_inter_group()
        except ValueError:
            base = 1.0
        #: Ack coalescing window: one ack per link per burst of arrivals.
        self.ack_delay = base
        #: Base timeout for links whose latency needs sampling.
        self._default_rto = 3.0 * base + 2.0 * self.ack_delay
        # Nested src -> dst -> link maps: the hot paths hoist the outer
        # row once per send/arrival instead of hashing a fresh (src,
        # dst) tuple per copy.
        self._send_links: Dict[int, Dict[int, _SendLink]] = {}
        self._recv_links: Dict[int, Dict[int, _RecvLink]] = {}
        # kind -> covers verdict; the kind alphabet is tiny and covers()
        # runs once per logical send, so memoizing beats startswith.
        self._covered: Dict[str, bool] = {}
        # State of the send currently being sequenced, fixed by
        # sequencer(): the retransmission record shared by every copy's
        # unacked slot, and the sender's (hoisted) link row.
        self._rec: "tuple | None" = None
        self._row: Dict[int, _SendLink] = {}

    @property
    def stats(self) -> TransportStats:
        """The run's counters, with the watermark-derived ones synced.

        Every first transmission claims exactly one send-side sequence
        number, and every frame a receiver releases upward either
        advances ``next_seq`` by one or joins ``seen`` (and moves from
        there into ``next_seq`` when the gap below it fills) — so
        ``data_copies`` and ``released`` are sums over the links,
        derived here instead of burdening the per-copy hot paths with
        counter increments.
        """
        stats = self._stats
        stats.data_copies = sum(
            link.next_seq
            for row in self._send_links.values()
            for link in row.values()
        )
        stats.released = sum(
            link.next_seq + len(link.seen)
            for row in self._recv_links.values()
            for link in row.values()
        )
        return stats

    # ------------------------------------------------------------------
    # Mounting
    # ------------------------------------------------------------------
    def mount(self) -> None:
        """Register the ack handler on every process of the network."""
        for process in self.network.processes():
            process.register_handler(ACK_KIND, self._on_ack)
        self.network.set_transport(self)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def covers(self, kind: str) -> bool:
        """Whether ``kind`` rides the transport.

        Failure-detection traffic must feel the raw link (a heartbeat
        retransmitted after the sender died would falsify suspicion),
        and the transport's own control kinds are idempotent by design.
        """
        cached = self._covered.get(kind)
        if cached is None:
            cached = not (kind.startswith("fd.") or kind.startswith("tsp."))
            self._covered[kind] = cached
        return cached

    def sequencer(self, src: int, kind: str, payload: dict, now: float):
        """The per-copy sequencing hook for one logical send.

        Returns :meth:`next_wire` when ``kind`` rides the transport,
        None when it must feel the raw link.  The network calls this
        once per ``send``/``send_many`` (one logical send), then the
        returned hook once per copy.  Everything a copy shares with its
        fan-out siblings is fixed here, once: the retransmission record
        ``(kind, payload, sent_at)`` every copy's unacked slot will
        reference, and the sender's link row — so the per-copy cost is
        a single call that allocates nothing but the frame word.
        """
        if not self.covers(kind):
            return None
        self._stats.wrapped_sends += 1
        row = self._send_links.get(src)
        if row is None:
            row = self._send_links[src] = {}
        self._row = row
        self._rec = (kind, payload, now)
        return self.next_wire

    def next_wire(self, src: int, dst: int) -> int:
        """Sequence one copy; returns its frame word for the envelope.

        The caller (the network's send path) has already established
        that the sender is alive, so the unacked record can never be
        stranded by a send the network would have refused.  A relayed
        payload (protocols re-send ``msg.payload`` verbatim, e.g. the
        reliable-multicast lazy relay) needs no special casing: the
        frame word lives on the new copy's envelope, never in the
        payload.
        """
        try:
            link = self._row[dst]
        except KeyError:
            link = self._row[dst] = self._new_send_link(src, dst)
        seq = link.next_seq
        link.next_seq = seq + 1
        link.unacked[seq] = self._rec
        if not link.timer_armed:
            link.timer_armed = True
            self.sim.schedule_action(
                link.rto, lambda k=(src, dst): self._on_timer(k))
        return (seq << 8) | ((seq * 2654435761) ^ link.salt) & 0xFF

    def _new_send_link(self, src: int, dst: int) -> _SendLink:
        """Per-link timeouts scaled to the link's (fixed) latency."""
        group_of = self.network.topology.group_index
        delay = self.network.latency.fixed_delay(group_of[src],
                                                 group_of[dst])
        if delay is not None:
            # > one round trip plus the receiver's ack coalescing delay,
            # so a zero-loss run never retransmits spuriously.
            rto = 3.0 * delay + 2.0 * self.ack_delay
        else:
            rto = self._default_rto
        min_gap = 2.0 * (delay if delay is not None else self.ack_delay)
        return _SendLink(rto, min_gap, (src * 7919) ^ (dst * 104729))

    def _resend(self, src: int, dst: int, seq: int, kind: str,
                body: dict) -> None:
        wire = (seq << 8) | _checksum(src, dst, seq)
        self.network._send_copy(src, dst, kind, body, wire)

    def _on_timer(self, lk: Tuple[int, int]) -> None:
        """Lazy per-link retransmission timer (non-cancellable kernel
        events force the check-on-fire shape: the timer re-derives what
        is actually due instead of being rescheduled on every ack)."""
        link = self._send_links[lk[0]][lk[1]]
        link.timer_armed = False
        if not link.unacked:
            link.backoff = 0
            return
        src, dst = lk
        processes = self.network._processes
        if processes[src].crashed:
            link.unacked.clear()
            return
        if processes[dst].crashed:
            # Ground-truth give-up: quasi-reliability promises nothing
            # to a crashed destination, and detector *suspicion* alone
            # must never stop retransmission between correct processes.
            self._stats.abandoned += len(link.unacked)
            link.unacked.clear()
            return
        now = self.sim.now
        unacked = link.unacked
        # Selective repeat: only frames whose own timeout has passed.
        cutoff = now + 1e-12 - link.rto * self.BACKOFF_FACTOR ** link.backoff
        due = [seq for seq, rec in unacked.items() if rec[2] <= cutoff]
        if due:
            for seq in due:
                kind, body, _ = unacked[seq]
                unacked[seq] = (kind, body, now)
                self._resend(src, dst, seq, kind, body)
            self._stats.retransmits += len(due)
            link.backoff = min(link.backoff + 1, self.MAX_BACKOFF_EXP)
        # Re-arm for the earliest remaining deadline; when that is a
        # frame just resent, jitter desynchronises the repeat.
        oldest = min(rec[2] for rec in unacked.values())
        delay = oldest + link.rto * self.BACKOFF_FACTOR ** link.backoff - now
        if oldest == now:
            delay *= 1.0 + self.JITTER * self.rng.random()
        link.timer_armed = True
        self.sim.schedule_action(delay, lambda k=lk: self._on_timer(k))

    def _on_ack(self, msg) -> None:
        """Clear acked frames; SACK gaps trigger fast retransmission."""
        lk = (msg.dst, msg.src)  # the ack flows dst -> src of the link
        row = self._send_links.get(msg.dst)
        link = row.get(msg.src) if row is not None else None
        if link is None:
            return
        cum, sack = msg.payload[_ACK_BODY]
        unacked = link.unacked
        progress = False
        for seq in list(unacked):
            if seq >= cum:
                break  # insertion order == seq order
            del unacked[seq]
            progress = True
        for seq in sack:
            if seq in unacked:
                del unacked[seq]
                progress = True
        if progress:
            link.backoff = 0
        if sack and unacked:
            # Everything below the highest SACKed seq is a hole the
            # receiver is definitely missing: the NACK signal.
            src, dst = lk
            now = self.sim.now
            hi = sack[-1]
            for seq, (kind, body, sent_at) in list(unacked.items()):
                if seq >= hi:
                    break
                if now - sent_at < link.min_gap:
                    continue  # damp: a resend for this hole is in flight
                unacked[seq] = (kind, body, now)
                self._resend(src, dst, seq, kind, body)
                self._stats.fast_retransmits += 1

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def on_frame(self, msg, wire: int) -> bool:
        """Admit one arriving copy: checksum, dedup, release on arrival.

        Called by ``Network._deliver`` (with ``wire = msg.wire``) after
        the crash/filter/clock/trace steps; True tells it to run the
        handler now — the first intact copy of a frame is released the
        instant it arrives, whatever is still missing below it.
        """
        dst = msg.dst
        src = msg.src
        try:
            link = self._recv_links[dst][src]
        except KeyError:
            row = self._recv_links.setdefault(dst, {})
            link = row[src] = _RecvLink((src * 7919) ^ (dst * 104729))
        seq = wire >> 8
        if (wire & 0xFF) != ((seq * 2654435761) ^ link.salt) & 0xFF:
            self._stats.corrupt_detected += 1
            release = False
            # Ack anyway: the cumulative/SACK state tells the sender
            # what survived, and the damaged seq stays unacked.
        elif seq == link.next_seq:
            # In-order fast path: every copy of a fault-free run lands
            # here, so it touches no counters at all — the released
            # count is derived from the link state (see ``stats``).
            seq += 1
            seen = link.seen
            while seq in seen:
                seen.remove(seq)
                seq += 1
            link.next_seq = seq
            release = True
        elif seq < link.next_seq or seq in link.seen:
            self._stats.dup_suppressed += 1
            release = False
            # Ack anyway: the first ack for this seq may have been lost.
        else:
            link.seen.add(seq)
            self._stats.out_of_order += 1
            release = True
        if not link.ack_armed:
            link.ack_armed = True
            self.sim.schedule_action(self.ack_delay,
                                     lambda k=(src, dst): self._send_ack(k))
        return release

    def _send_ack(self, lk: Tuple[int, int]) -> None:
        src, dst = lk
        link = self._recv_links[dst][src]
        link.ack_armed = False
        if self.network._processes[dst].crashed:
            return  # the dead don't ack
        sack = tuple(sorted(link.seen)) if link.seen else ()
        self._stats.acks_sent += 1
        self.network._send_copy(dst, src, ACK_KIND,
                                {_ACK_BODY: (link.next_seq, sack)})

    # ------------------------------------------------------------------
    # Drain inspection (stabilization checker)
    # ------------------------------------------------------------------
    def outstanding(self) -> Dict[str, Dict[Tuple[int, int], int]]:
        """Undrained transport state between *correct* endpoints.

        Links with a crashed endpoint are exempt: quasi-reliability
        promises nothing across them, so frames stranded there are not
        a stabilization failure.  An empty result is the transport's
        half of the self-stabilization property.
        """
        processes = self.network._processes
        unacked = {
            (src, dst): len(link.unacked)
            for src, row in self._send_links.items()
            for dst, link in row.items()
            if link.unacked and not processes[src].crashed
            and not processes[dst].crashed
        }
        out_of_order = {
            (src, dst): len(link.seen)
            for dst, row in self._recv_links.items()
            for src, link in row.items()
            if link.seen and not processes[src].crashed
            and not processes[dst].crashed
        }
        return {"unacked": unacked, "out_of_order": out_of_order}
