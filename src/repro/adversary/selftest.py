"""The explorer's canary: an intentionally broken protocol fixture.

:class:`BrokenFifoMulticast` is a deliberately naive sequencer protocol
that *assumes FIFO links*: a fixed sequencer (process 0) stamps every
message with a sequence number, fans it out, and receivers deliver in
arrival order, trusting that copies from the sequencer arrive in the
order they were sent.  Under benign schedules with fixed link latencies
that assumption holds and every paper property passes — exactly the
kind of bug that survives ordinary randomized testing.  The paper's
quasi-reliable links promise no ordering, so the ``delay-reorder``
adversary breaks it with a single held-back copy, and the shrinker
minimises the counterexample to a handful of faults.

This is Zave's "How to Make Chord Correct" lesson in miniature: the
protocol is only wrong on schedules an adversary must construct.  The
fixture is **test-only** — it is registered into the protocol registry
exclusively by :func:`register_selftest_protocol`, which the torture
CLI's ``--selftest`` mode and the adversary test-suite call; nothing in
the default registry exposes it.
"""

from __future__ import annotations

from repro.core.interfaces import AppMessage, AtomicMulticast

#: Registry name of the broken fixture (absent by default).
PROTOCOL_NAME = "broken-fifo"


class BrokenFifoMulticast(AtomicMulticast):
    """Sequencer multicast that (wrongly) trusts link-level FIFO.

    The sequencer is always process 0.  Known deliberate defects:

    * receivers deliver ``ord`` messages in *arrival* order without
      checking the sequence number — reordered links reorder
      deliveries (uniform prefix order breaks);
    * no sequencer failover — crash process 0 and liveness is gone.

    Do not fix; the adversary suite asserts these are caught.
    """

    SEQUENCER = 0

    def __init__(self, process, topology) -> None:
        self.process = process
        self.topology = topology
        self._deliver = None
        self._next_seq = 0  # used by the sequencer endpoint only
        process.register_handler("broken.req", self._on_req)
        process.register_handler("broken.ord", self._on_ord)

    def set_delivery_handler(self, handler) -> None:
        self._deliver = handler

    # ------------------------------------------------------------------
    def a_mcast(self, msg: AppMessage) -> None:
        self.process.send(self.SEQUENCER, "broken.req",
                          {"wire": msg.to_wire()})

    def _on_req(self, net_msg) -> None:
        seq = self._next_seq
        self._next_seq += 1
        wire = net_msg.payload["wire"]
        dest_groups = AppMessage.from_wire(wire).dest_groups
        dests = self.topology.processes_of_groups(dest_groups)
        self.process.send_many(dests, "broken.ord",
                               {"wire": wire, "seq": seq})

    def _on_ord(self, net_msg) -> None:
        # BUG (deliberate): payload["seq"] is ignored — delivery happens
        # in arrival order, which is sequencing order only on FIFO links.
        self._deliver((AppMessage.from_wire(net_msg.payload["wire"]),))


def _make_broken_fifo(system, process, **kw):
    return BrokenFifoMulticast(process, system.topology, **kw)


def register_selftest_protocol() -> None:
    """Expose the broken fixture to ``build_system`` (idempotent)."""
    from repro.runtime.builder import PROTOCOLS

    PROTOCOLS.setdefault(PROTOCOL_NAME, _make_broken_fifo)
