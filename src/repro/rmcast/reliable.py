"""Non-uniform reliable multicast (paper Section 2.2).

Properties:

* uniform integrity — R-Deliver each multicast at most once, only if
  addressed and previously R-MCast;
* validity — a *correct* sender's message is R-Delivered by all correct
  addressees;
* agreement — if a *correct* process R-Delivers m, all correct
  addressees R-Deliver m.

Implementation: the sender sends one copy per addressee (this is the
``d(k-1)`` inter-group message cost the paper charges for the primitive,
after [6]).  Agreement despite a faulty sender is ensured by a **lazy
relay**: each receiver arms a one-shot check; if the sender is suspected
by then, the receiver relays the message to every addressee.  In the
common case (sender correct) the check finds nothing to do, and the
primitive stays at its optimal message cost — and, because the check is
a finite local step, the primitive is *halting*, which Algorithm A2's
quiescence proof requires (paper footnote 12).  The check is asked of
the detector (:meth:`FailureDetector.call_if_suspected`), which decides
whether it needs a kernel event at all: an oracle that knows the crash
instants queues none in a failure-free run.  Each copy first asks
whether its sender can be suspected at all
(:meth:`FailureDetector.can_suspect`): a copy from a sender that cannot
be (the perfect detector was not told it may crash) asks the detector
nothing more — no suspicion, no check.

Delivery is immediate on first receipt, giving the latency degree of 1
the paper uses in its analyses (Theorem 4.1).

Duplicates are recognised by **rank**, not by message id: a sender
numbers the copies it addresses to each process 1, 2, 3, ... and the
body carries that number for every addressee; a relay forwards the body
untouched, so a relayed copy carries the original sender's rank.  A
receiver keeps, per original sender, the highest rank up to which every
copy arrived and the ranks received past a gap — state bounded by the
copies still in flight, not by the length of the run.  Integrity is
therefore per *multicast*: R-MCast the same id twice and it is
R-Delivered twice (the layers above cast each id once).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set

from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.sim.process import Process

# Delivery callback: (payload, message_id, original_sender) -> None.
RDeliveryHandler = Callable[[dict, str, int], None]


class ReliableMulticast:
    """One process's endpoint of non-uniform reliable multicast."""

    #: Subclasses toggle eager relaying (uniform variant).
    EAGER_RELAY = False

    def __init__(
        self,
        process: Process,
        detector: FailureDetector,
        relay_after: float = 20.0,
        namespace: str = "rmc",
    ) -> None:
        self.process = process
        self._pid = process.pid
        self.detector = detector
        self.relay_after = relay_after
        self.ns = namespace
        # Copies numbered so far per addressee; per original sender, the
        # rank up to which every copy addressed here arrived and the
        # ranks received past a gap (empty sets are dropped).
        self._sent: Dict[int, int] = {}
        self._prefix: Dict[int, int] = {}
        self._ahead: Dict[int, Set[int]] = {}
        #: Relays sent (diagnostics).
        self.relays = 0
        self._handler: Optional[RDeliveryHandler] = None
        self._k_data = f"{namespace}.data"
        self._check_label = f"{namespace}.relaycheck"
        process.register_handler(self._k_data, self._on_data)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: RDeliveryHandler) -> None:
        """Install the (single) R-Deliver callback."""
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def multicast(self, dest_pids: Sequence[int], payload: dict,
                  mid: str) -> str:
        """R-MCast ``payload`` to ``dest_pids`` under ``mid`` (A1 and A2
        pass their application message's id); returns ``mid``.

        ``dest_pids`` is ascending and duplicate-free (A1 passes
        ``processes_of_groups``, A2 its member tuple); it is sent as
        given and rides every copy, so it must not change afterwards.
        Correctness needs it duplicate-free: an addressee reads its
        rank at the first index of its pid.  Ascending order only fixes
        the order copies are sent in, and so every run's events.
        """
        if not dest_pids:
            raise ValueError("reliable multicast needs at least one addressee")
        sent = self._sent
        ranks = []
        for pid in dest_pids:
            sent[pid] = rank = sent.get(pid, 0) + 1
            ranks.append(rank)
        body = {
            "mid": mid,
            "sender": self._pid,
            "dests": dest_pids,
            "ranks": tuple(ranks),
            "data": payload,
        }
        self.process.send_many(dest_pids, self._k_data, body)
        return mid

    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        body = msg.payload
        sender = body["sender"]
        rank = body["ranks"][body["dests"].index(self._pid)]
        if (rank == self._prefix.get(sender, 0) + 1
                and sender not in self._ahead):
            self._prefix[sender] = rank  # the next in order, no gap
        elif not self._admit_out_of_order(sender, rank):
            return  # a duplicate or a relay of a multicast heard before
        handler = self._handler
        if handler is None:
            raise RuntimeError("no R-Deliver handler installed")
        if self.EAGER_RELAY:
            self._relay(body)
            handler(body["data"], body["mid"], sender)
        else:
            handler(body["data"], body["mid"], sender)
            if not self.detector.can_suspect(sender):
                return  # never suspected: no relay, and no check to park
            pid = self._pid
            if self.detector.suspects(pid, sender):
                self._relay(body)
            else:
                # One-shot lazy relay: act only if the sender looks
                # faulty relay_after from now.
                sim = self.process.sim
                self.detector.call_if_suspected(
                    sim, pid, sender, sim.now + self.relay_after,
                    self._relay_if_alive, body, self._check_label)

    def _admit_out_of_order(self, sender: int, rank: int) -> bool:
        """Count a copy that is not simply the next rank; False iff its
        rank was received before."""
        prefix = self._prefix.get(sender, 0)
        ahead = self._ahead.get(sender)
        if rank <= prefix or (ahead is not None and rank in ahead):
            return False
        if rank == prefix + 1:  # the gap closed: catch up
            while rank + 1 in ahead:
                rank += 1
                ahead.remove(rank)
            if not ahead:
                del self._ahead[sender]
            self._prefix[sender] = rank
        else:
            self._ahead.setdefault(sender, set()).add(rank)  # past a gap
        return True

    def _relay_if_alive(self, body: dict) -> None:
        if not self.process.crashed:
            self._relay(body)

    def _relay(self, body: dict) -> None:
        # Armed once, on first receipt: each process relays a multicast
        # at most once.
        self.relays += 1
        others = [p for p in body["dests"] if p != self._pid]
        if others:
            self.process.send_many(others, self._k_data, body)

    # ------------------------------------------------------------------
    def inv(self) -> None:
        """Assert the dedup state's invariant at an event boundary: a
        rank held past a gap is above the gap, which is its sender's
        gap-free rank + 1."""
        for sender, ahead in self._ahead.items():
            prefix = self._prefix.get(sender, 0)
            assert ahead and min(ahead) > prefix + 1, (sender, prefix, ahead)


class UniformReliableMulticast(ReliableMulticast):
    """Uniform variant: relay eagerly *before* delivering.

    If any process — even one that crashes right after — R-Delivers m,
    its relays are already in flight, so every correct addressee also
    R-Delivers m.  The price is O(|dest|²) messages, the figure the
    paper charges the Fritzke et al. [5] baseline for its uniform
    primitive.
    """

    EAGER_RELAY = True
