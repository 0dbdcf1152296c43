"""The transport's contract, timed: release on arrival, selective repeat.

One sender (pid 0), one receiver (pid 1), one fixed-delay link and a
hand-placed fault, so every instant below is derived from three numbers:
the one-way delay ``D``, the ack coalescing delay (= ``D``) and the
link's base timeout ``RTO = 3 D + 2 ack_delay``.
"""

import random

import pytest

from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.transport import ReliableTransport

D = 1.0
RTO = 5.0 * D
KIND = "test.data"


class _Link:
    """Pid 0 → pid 1 across groups, with the transport mounted."""

    def __init__(self):
        self.sim = Simulator()
        topology = Topology([1, 1])
        self.net = Network(self.sim, topology,
                           LatencyModel(Fixed(0.1), Fixed(D)),
                           random.Random(0))
        for pid in topology.processes:
            self.net.register(Process(pid, topology.group_of(pid), self.sim))
        self.transport = ReliableTransport(self.sim, self.net,
                                           random.Random(1))
        self.transport.mount()
        #: (seq, sim time) per frame handed to the receiver's handler.
        self.released = []
        #: (seq, send time, sim time) per data copy reaching pid 1.
        self.arrived = []
        self.net.process(1).register_handler(
            KIND, lambda m: self.released.append((m.wire >> 8, self.sim.now)))
        self.net.add_delivery_filter(self._observe)
        self.dropping = lambda msg: False

    def _observe(self, msg) -> bool:
        if msg.kind != KIND:
            return True
        if self.dropping(msg):
            return False
        self.arrived.append((msg.wire >> 8, msg.send_time, self.sim.now))
        return True

    def send_at(self, *times):
        for when in times:
            self.sim.schedule_action(
                when, lambda: self.net.send(0, 1, KIND, {}))


def test_a_lost_frame_delays_only_itself():
    """Drop frame 1 once: frames 2 and 3 reach the handler at their own
    arrival instants, frame 1 at its retransmission's."""
    link = _Link()
    lost = []

    def drop_first_copy_of_seq_1(msg):
        if msg.wire >> 8 == 1 and not lost:
            lost.append(link.sim.now)
            return True
        return False

    link.dropping = drop_first_copy_of_seq_1
    link.send_at(0.0, 0.1, 0.2, 0.3)
    link.sim.run()

    assert lost == [pytest.approx(0.1 + D)]
    released = dict(link.released)
    assert len(link.released) == 4 and sorted(released) == [0, 1, 2, 3]
    assert released[0] == pytest.approx(0.0 + D)
    assert released[2] == pytest.approx(0.2 + D)
    assert released[3] == pytest.approx(0.3 + D)
    # The ack leaves D after the first arrival carrying SACK (2, 3);
    # it reaches the sender at 3 D, which fast-retransmits the hole.
    resent = [(sent, at) for seq, sent, at in link.arrived if seq == 1]
    assert resent == [(pytest.approx(3 * D), pytest.approx(4 * D))]
    assert released[1] == resent[0][1]
    assert [seq for seq, _ in link.released] == [0, 2, 3, 1]
    assert link.transport.stats.fast_retransmits == 1
    assert link.transport.stats.retransmits == 0
    assert link.transport.stats.out_of_order == 2


def test_timer_resends_only_the_overdue_frame():
    """One old and one young unacked frame when the timer fires: only
    the old one is resent, and the timer re-arms for the young frame's
    own deadline — not a full timeout from now."""
    link = _Link()
    link.dropping = lambda msg: link.sim.now < 12.0  # a dead wire
    young_at = 3.0
    link.send_at(0.0, young_at)

    link.sim.run(until=RTO + 0.01)
    assert link.transport.stats.retransmits == 1
    send_link = link.transport._send_links[0][1]
    assert send_link.unacked[0][2] == pytest.approx(RTO)   # resent now
    assert send_link.unacked[1][2] == pytest.approx(young_at)  # untouched
    assert send_link.backoff == 1

    # Nothing else fires before the young frame's deadline under the
    # link's doubled timeout; then it alone is resent.
    deadline = young_at + 2 * RTO
    link.sim.run(until=deadline - 0.01)
    assert link.transport.stats.retransmits == 1
    link.sim.run(until=deadline + 0.01)
    assert link.transport.stats.retransmits == 2
    assert send_link.unacked[1][2] == pytest.approx(deadline)
    assert send_link.unacked[0][2] == pytest.approx(RTO)

    link.sim.run()
    assert sorted(seq for seq, _ in link.released) == [0, 1]


def test_duplicate_of_a_frame_released_above_the_watermark_is_suppressed():
    link = _Link()
    link.dropping = lambda msg: msg.wire >> 8 == 0 and link.sim.now < 2.0
    link.send_at(0.0, 0.1)
    link.sim.run(until=0.1 + D + 0.01)
    assert link.released == [(1, pytest.approx(0.1 + D))]
    recv_link = link.transport._recv_links[1][0]
    assert (recv_link.next_seq, recv_link.seen) == (0, {1})
    # Released counts it although the watermark has not moved.
    assert link.transport.stats.released == 1

    # The channel delivers frame 1 a second time while 0 is missing.
    link.transport._resend(0, 1, 1, KIND, {})
    link.sim.run(until=0.1 + 2 * D + 0.02)
    assert [seq for seq, _, _ in link.arrived] == [1, 1]
    assert [seq for seq, _ in link.released] == [1]
    assert link.transport.stats.dup_suppressed == 1

    link.sim.run()
    assert [seq for seq, _ in link.released] == [1, 0]
    assert (recv_link.next_seq, recv_link.seen) == (2, set())


def test_quiescence_leaves_every_seen_set_empty():
    """Heavy seeded loss both ways, then a clean wire: every frame is
    released exactly once and the watermark swallows the seen-set."""
    link = _Link()
    rng = random.Random(5)
    link.net.add_delivery_filter(
        lambda msg: link.sim.now >= 30.0 or rng.random() >= 0.4)
    link.send_at(*(0.25 * i for i in range(80)))
    link.sim.run()

    seqs = [seq for seq, _ in link.released]
    assert sorted(seqs) == list(range(80)) and seqs != sorted(seqs)
    stats = link.transport.stats
    assert stats.out_of_order > 0
    assert stats.released == stats.data_copies == 80
    for row in link.transport._recv_links.values():
        for recv_link in row.values():
            assert recv_link.seen == set()
    assert link.transport.outstanding() == {"unacked": {},
                                            "out_of_order": {}}
