"""Non-uniform reliable multicast (paper Section 2.2).

Properties:

* uniform integrity — R-Deliver at most once, only if addressed and
  previously R-MCast;
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
instants queues none in a failure-free run.

Delivery is immediate on first receipt, giving the latency degree of 1
the paper uses in its analyses (Theorem 4.1).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.sim.process import Process

# Delivery callback: (payload, message_id, original_sender) -> None.
RDeliveryHandler = Callable[[dict, str, int], None]

_MCAST_IDS = itertools.count()


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
        self.detector = detector
        self.relay_after = relay_after
        self.ns = namespace
        self._delivered: Set[str] = set()
        self._relayed: Set[str] = set()
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

    def multicast(
        self, dest_pids: List[int], payload: dict, mid: Optional[str] = None
    ) -> str:
        """R-MCast ``payload`` to ``dest_pids``; returns the message id."""
        if not dest_pids:
            raise ValueError("reliable multicast needs at least one addressee")
        if mid is None:
            mid = f"rm{next(_MCAST_IDS)}"
        body = {
            "mid": mid,
            "sender": self.process.pid,
            "dests": sorted(set(dest_pids)),
            "data": payload,
        }
        self.process.send_many(body["dests"], self._k_data, body)
        return mid

    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        body = msg.payload
        mid = body["mid"]
        if mid in self._delivered:
            return
        self._delivered.add(mid)
        if self.EAGER_RELAY:
            self._relay(body)
            self._deliver(body)
        else:
            self._deliver(body)
            pid = self.process.pid
            sender = body["sender"]
            if self.detector.suspects(pid, sender):
                self._relay(body)
            else:
                # One-shot lazy relay: act only if the sender looks
                # faulty relay_after from now.
                sim = self.process.sim
                self.detector.call_if_suspected(
                    sim, pid, sender, sim.now + self.relay_after,
                    self._relay_if_alive, body, self._check_label)

    def _relay_if_alive(self, body: dict) -> None:
        if not self.process.crashed:
            self._relay(body)

    def _relay(self, body: dict) -> None:
        mid = body["mid"]
        if mid in self._relayed:
            return
        self._relayed.add(mid)
        others = [p for p in body["dests"] if p != self.process.pid]
        if others:
            self.process.send_many(others, self._k_data, body)

    def _deliver(self, body: dict) -> None:
        if self._handler is None:
            raise RuntimeError("no R-Deliver handler installed")
        self._handler(body["data"], body["mid"], body["sender"])


class UniformReliableMulticast(ReliableMulticast):
    """Uniform variant: relay eagerly *before* delivering.

    If any process — even one that crashes right after — R-Delivers m,
    its relays are already in flight, so every correct addressee also
    R-Delivers m.  The price is O(|dest|²) messages, the figure the
    paper charges the Fritzke et al. [5] baseline for its uniform
    primitive.
    """

    EAGER_RELAY = True
