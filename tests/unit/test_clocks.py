"""Unit tests for the modified Lamport clocks and the latency meter.

The clock rules are the ones of paper Section 2.3; the hand-computed
scenarios mirror the appendix proofs of Theorems 4.1, 5.1 and 5.2.
"""

from repro.clocks.lamport import LamportClock
from repro.core.interfaces import AppMessage
from repro.runtime.builder import SystemSpec, build_system


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


class _StubEndpoint:
    """Takes a built system's delivery callback, to feed it by hand."""

    def set_delivery_handler(self, handler):
        self.deliver = handler


class TestLatencyMeter:
    """The Lamport arithmetic of ``Δ(m, R)``, written by a built
    system's two writers — ``System.record_cast`` and the endpoints'
    delivery callback — and read back through its meter.  Pids 0, 1 are
    group 0 and pids 2, 3 group 1; every endpoint is a stub."""

    def setup_method(self):
        self.system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2]), seed=0)
        self.stubs = {}
        for pid in self.system.topology.processes:
            self.stubs[pid] = _StubEndpoint()
            self.system.install_endpoint(pid, self.stubs[pid])
        self.meter = self.system.meter

    def _proc(self, pid):
        return self.system.network.process(pid)

    def _at(self, now, action):
        self.system.sim.call_at(now, action)
        self.system.run()

    def _cast(self, mid, pid, dest_groups=(0, 1), now=0.0):
        msg = AppMessage(mid, pid, dest_groups)
        self._at(now, lambda: self.system.record_cast(msg))
        return msg

    def _deliver(self, msg, pid, now=0.0):
        self._at(now, lambda: self.stubs[pid].deliver((msg,)))

    def test_degree_none_before_delivery(self):
        self._cast("m1", 0)
        assert self.meter.latency_degree("m1") is None

    def test_degree_zero_for_local_delivery(self):
        msg = self._cast("m1", 0)
        self._deliver(msg, 0)
        assert self.meter.latency_degree("m1") == 0

    def test_degree_is_max_over_deliverers(self):
        near, far = self._proc(1), self._proc(2)
        near.lamport.observe_receive(1)
        far.lamport.observe_receive(2)
        msg = self._cast("m1", 0)
        self._deliver(msg, 1)
        self._deliver(msg, 2)
        assert self.meter.latency_degree("m1") == 2

    def test_theorem_4_1_hand_run(self):
        """Replay the appendix run of Theorem 4.1 by hand.

        g1 casts m to g1 and g2; groups exchange TS proposals; g1
        delivers after receiving g2's proposal (which took 2 hops from
        the cast: R-MCast then TS).
        """
        p1 = self._proc(0)   # caster in g1
        q1 = self._proc(2)   # member of g2
        msg = self._cast("m", 0)
        # R-MCast: p1 -> q1 is inter-group (ts = 1).
        q1.lamport.observe_receive(p1.lamport.timestamp_send(True))
        # TS exchange: q1 -> p1 (ts = 2) and p1 -> q1 (ts = 1).
        p1.lamport.observe_receive(q1.lamport.timestamp_send(True))
        q1.lamport.observe_receive(1)
        self._deliver(msg, 0)   # delivers at LC = 2
        self._deliver(msg, 2)   # delivers at LC = 1
        assert self.meter.latency_degree("m") == 2

    def test_wall_latencies(self):
        msg = self._cast("m1", 0, now=10.0)
        self._deliver(msg, 0, now=12.0)
        self._deliver(msg, 1, now=16.0)
        rec = self.meter.record_for("m1")
        assert rec.worst_delivery_latency == 6.0
        assert rec.mean_delivery_latency == 4.0

    def test_degrees_over_messages(self):
        self._proc(2).lamport.observe_receive(3)
        a = self._cast("a", 0)
        self._deliver(a, 1)
        b = self._cast("b", 0)
        self._deliver(b, 2)
        assert self.meter.degrees() == {"a": 0, "b": 3}

    def test_records_sorted_by_id(self):
        self._cast("b", 0)
        self._cast("a", 1)
        assert [r.msg.mid for r in self.meter.records()] == ["a", "b"]

    def test_dest_groups_recorded(self):
        msg = self._cast("m", 0, dest_groups=(1, 0))
        assert self.meter.record_for("m").dest_groups == (0, 1)
        assert self.meter.record_for("m").dest_groups is msg.dest_groups
