"""Unit tests for the modified Lamport clocks and the latency meter.

The clock rules are the ones of paper Section 2.3; the hand-computed
scenarios mirror the appendix proofs of Theorems 4.1, 5.1 and 5.2.
"""

from repro.clocks.lamport import LamportClock
from repro.clocks.latency import LatencyMeter
from repro.sim.kernel import Simulator
from repro.sim.process import Process


class TestLamportClock:
    def test_starts_at_zero(self):
        assert LamportClock().value == 0

    def test_local_event_does_not_advance(self):
        clock = LamportClock()
        assert clock.local_event() == 0
        assert clock.value == 0

    def test_intra_group_send_not_charged(self):
        clock = LamportClock()
        assert clock.timestamp_send(inter_group=False) == 0
        assert clock.value == 0

    def test_inter_group_send_charged_one_hop(self):
        clock = LamportClock()
        assert clock.timestamp_send(inter_group=True) == 1
        # The *send* does not advance the sender's own clock: a
        # one-to-many send is one logical step (Section 2.3).
        assert clock.value == 0

    def test_two_parallel_inter_sends_cost_one_hop_each(self):
        clock = LamportClock()
        ts1 = clock.timestamp_send(inter_group=True)
        ts2 = clock.timestamp_send(inter_group=True)
        assert ts1 == ts2 == 1

    def test_receive_advances_to_max(self):
        clock = LamportClock()
        assert clock.observe_receive(3) == 3
        assert clock.value == 3
        assert clock.observe_receive(1) == 3  # stale ts does not regress

    def test_chain_of_inter_group_hops_accumulates(self):
        a, b, c = LamportClock(), LamportClock(), LamportClock()
        b.observe_receive(a.timestamp_send(inter_group=True))
        c.observe_receive(b.timestamp_send(inter_group=True))
        assert c.local_event() == 2

    def test_intra_group_chain_costs_nothing(self):
        a, b, c = LamportClock(), LamportClock(), LamportClock()
        b.observe_receive(a.timestamp_send(inter_group=False))
        c.observe_receive(b.timestamp_send(inter_group=False))
        assert c.local_event() == 0


def _proc(pid, gid=0):
    return Process(pid, gid, Simulator())


class TestLatencyMeter:
    def test_degree_none_before_delivery(self):
        meter = LatencyMeter()
        meter.record_cast("m1", _proc(0))
        assert meter.latency_degree("m1") is None

    def test_degree_zero_for_local_delivery(self):
        meter = LatencyMeter()
        p = _proc(0)
        meter.record_cast("m1", p)
        meter.record_delivery("m1", p)
        assert meter.latency_degree("m1") == 0

    def test_degree_is_max_over_deliverers(self):
        meter = LatencyMeter()
        caster = _proc(0)
        near, far = _proc(1), _proc(2)
        near.lamport.observe_receive(1)
        far.lamport.observe_receive(2)
        meter.record_cast("m1", caster)
        meter.record_delivery("m1", near)
        meter.record_delivery("m1", far)
        assert meter.latency_degree("m1") == 2

    def test_theorem_4_1_hand_run(self):
        """Replay the appendix run of Theorem 4.1 by hand.

        g1 casts m to g1 and g2; groups exchange TS proposals; g1
        delivers after receiving g2's proposal (which took 2 hops from
        the cast: R-MCast then TS).
        """
        meter = LatencyMeter()
        p1 = _proc(0, gid=0)   # caster in g1
        q1 = _proc(1, gid=1)   # member of g2
        meter.record_cast("m", p1)
        # R-MCast: p1 -> q1 is inter-group (ts = 1).
        q1.lamport.observe_receive(p1.lamport.timestamp_send(True))
        # TS exchange: q1 -> p1 (ts = 2) and p1 -> q1 (ts = 1).
        p1.lamport.observe_receive(q1.lamport.timestamp_send(True))
        q1.lamport.observe_receive(1)
        meter.record_delivery("m", p1)   # delivers at LC = 2
        meter.record_delivery("m", q1)   # delivers at LC = 1
        assert meter.latency_degree("m") == 2

    def test_wall_latencies(self):
        meter = LatencyMeter()
        p, q = _proc(0), _proc(1)
        meter.record_cast("m1", p, now=10.0)
        meter.record_delivery("m1", p, now=12.0)
        meter.record_delivery("m1", q, now=16.0)
        rec = meter.record_for("m1")
        assert rec.worst_delivery_latency == 6.0
        assert rec.mean_delivery_latency == 4.0

    def test_degrees_over_messages(self):
        meter = LatencyMeter()
        caster = _proc(0)
        fast, slow = _proc(1), _proc(2)
        slow.lamport.observe_receive(3)
        meter.record_cast("a", caster)
        meter.record_delivery("a", fast)
        meter.record_cast("b", caster)
        meter.record_delivery("b", slow)
        assert meter.degrees() == {"a": 0, "b": 3}

    def test_records_sorted_by_id(self):
        meter = LatencyMeter()
        meter.record_cast("b", _proc(0))
        meter.record_cast("a", _proc(1))
        assert [r.msg_id for r in meter.records()] == ["a", "b"]

    def test_dest_groups_recorded(self):
        meter = LatencyMeter()
        meter.record_cast("m", _proc(0), dest_groups=(2, 0))
        assert meter.record_for("m").dest_groups == (0, 2)
