"""Unit tests for topology, latency models and the simulated network."""

import random

import pytest

from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import Fixed, Jittered, LatencyModel, Topology, Uniform
from repro.net.trace import MessageTrace
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.transport import ReliableTransport


class TestTopology:
    def test_consecutive_pid_assignment(self):
        topo = Topology([3, 2])
        assert topo.members(0) == [0, 1, 2]
        assert topo.members(1) == [3, 4]
        assert topo.n_processes == 5

    def test_group_of(self):
        topo = Topology([2, 2])
        assert topo.group_of(0) == 0
        assert topo.group_of(3) == 1

    def test_processes_of_groups(self):
        topo = Topology([2, 2, 2])
        assert topo.processes_of_groups([2, 0]) == [0, 1, 4, 5]
        assert topo.processes_of_groups([1, 1]) == [2, 3]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            Topology([3, 0])

    def test_no_groups_rejected(self):
        with pytest.raises(ValueError):
            Topology([])

    def test_group_ids(self):
        assert Topology([1, 1, 1]).group_ids == [0, 1, 2]


class TestDistributions:
    def test_fixed(self):
        assert Fixed(5.0).sample(random.Random(0)) == 5.0

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        dist = Uniform(1.0, 2.0)
        for _ in range(100):
            assert 1.0 <= dist.sample(rng) <= 2.0

    def test_jittered_at_least_base(self):
        rng = random.Random(0)
        dist = Jittered(10.0, 2.0)
        for _ in range(100):
            assert dist.sample(rng) >= 10.0

    def test_jittered_zero_jitter_is_fixed(self):
        assert Jittered(10.0, 0.0).sample(random.Random(0)) == 10.0


class TestLatencyModel:
    def test_intra_vs_inter(self):
        model = LatencyModel(intra=Fixed(1.0), inter=Fixed(100.0))
        rng = random.Random(0)
        assert model.sample(0, 0, rng) == 1.0
        assert model.sample(0, 1, rng) == 100.0

    def test_pairwise_override(self):
        model = LatencyModel(
            intra=Fixed(1.0), inter=Fixed(100.0),
            pairwise_inter={(0, 1): Fixed(250.0)},
        )
        rng = random.Random(0)
        assert model.sample(0, 1, rng) == 250.0
        assert model.sample(1, 0, rng) == 100.0  # override is directional

    def test_logical_model_unit_hops(self):
        model = LatencyModel.logical()
        rng = random.Random(0)
        assert model.sample(0, 1, rng) == 1.0
        assert model.sample(0, 0, rng) < 0.01

    def test_wan_model_scale(self):
        model = LatencyModel.wan(intra_ms=1.0, inter_ms=100.0)
        rng = random.Random(0)
        assert model.sample(0, 0, rng) < 10.0
        assert model.sample(0, 1, rng) >= 100.0


class TestMinInterGroup:
    """The smallest inter-group delay, the reliable transport's timescale
    (ack window and retransmission timeout)."""

    def test_intra_latency_does_not_count(self):
        model = LatencyModel(intra=Fixed(1e-6), inter=Fixed(5.0))
        assert model.min_inter_group() == 5.0

    def test_pairwise_overrides_take_the_min(self):
        model = LatencyModel(
            intra=Fixed(0.001), inter=Fixed(10.0),
            pairwise_inter={(0, 1): Fixed(3.0), (1, 0): Fixed(7.0)})
        assert model.min_inter_group() == 3.0

    def test_sampled_bounds_are_the_floors(self):
        assert LatencyModel.wan(inter_ms=100.0).min_inter_group() == 100.0
        model = LatencyModel(intra=Fixed(0.001), inter=Uniform(2.0, 9.0))
        assert model.min_inter_group() == 2.0

    @pytest.mark.parametrize("model", [
        LatencyModel(intra=Fixed(0.001), inter=Fixed(0.0)),
        LatencyModel(intra=Fixed(0.001), inter=Fixed(1.0),
                     pairwise_inter={(2, 0): Jittered(0.0, 5.0)}),
    ], ids=["inter", "pairwise"])
    def test_zero_bound_raises(self, model):
        with pytest.raises(ValueError, match="not strictly positive"):
            model.min_inter_group()

    def test_missing_inter_distribution_raises(self):
        model = LatencyModel(intra=Fixed(0.001), inter=None)
        with pytest.raises(ValueError, match="no inter-group"):
            model.min_inter_group()


def _network(group_sizes=(2, 2), latency=None, trace=True):
    sim = Simulator()
    topo = Topology(list(group_sizes))
    net = Network(
        sim, topo, latency or LatencyModel(Fixed(1.0), Fixed(10.0)),
        random.Random(0), trace=MessageTrace(enabled=trace),
    )
    for pid in topo.processes:
        net.register(Process(pid, topo.group_of(pid), sim))
    return sim, topo, net


class TestNetwork:
    def test_point_to_point_delivery(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        net.send(0, 1, "test", {"x": 42})
        sim.run()
        assert len(got) == 1
        assert got[0].payload["x"] == 42
        assert sim.now == 1.0  # intra-group latency

    def test_inter_group_latency_applied(self):
        sim, topo, net = _network()
        got = []
        net.process(2).register_handler("test", lambda m: got.append(sim.now))
        net.send(0, 2, "test", {})
        sim.run()
        assert got == [10.0]

    def test_stats_count_scopes(self):
        sim, topo, net = _network()
        for pid in topo.processes:
            net.process(pid).register_handler("test", lambda m: None)
        net.send(0, 1, "test", {})   # intra
        net.send(0, 2, "test", {})   # inter
        net.send(0, 3, "test", {})   # inter
        sim.run()
        assert net.stats.intra_group_messages == 1
        assert net.stats.inter_group_messages == 2
        assert net.stats.total_messages == 3

    def test_stats_by_kind_sums_to_total_over_send_and_send_many(self):
        sim, topo, net = _network()
        for pid in topo.processes:
            for kind in ("a", "b"):
                net.process(pid).register_handler(kind, lambda m: None)
        net.send(0, 2, "a", {})
        net.send_many(0, [1, 2, 3], "b", {})
        net.send_many(2, [0, 1, 3], "a", {})
        sim.run()
        stats = net.stats
        assert dict(stats.by_kind) == {"a": 4, "b": 3}
        assert sum(stats.by_kind.values()) == stats.total_messages == 7
        assert stats.inter_group_messages == 5

    def test_crashed_sender_sends_nothing(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        net.process(0).crash()
        net.send(0, 1, "test", {})
        sim.run()
        assert got == []
        assert net.stats.total_messages == 0

    def test_crashed_destination_drops(self):
        sim, topo, net = _network()
        net.process(1).register_handler("test", lambda m: None)
        net.send(0, 1, "test", {})
        net.process(1).crash()
        sim.run()
        assert net.stats.dropped == 1

    def test_in_flight_survives_sender_crash(self):
        """Quasi-reliability: a copy already sent is delivered."""
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        net.send(0, 1, "test", {})
        net.process(0).crash()
        sim.run()
        assert len(got) == 1

    def test_lamport_stamping_inter_group(self):
        sim, topo, net = _network()
        net.process(2).register_handler("test", lambda m: None)
        net.send(0, 2, "test", {})
        sim.run()
        assert net.process(2).lamport.value == 1
        assert net.process(0).lamport.value == 0

    def test_lamport_stamping_intra_group(self):
        sim, topo, net = _network()
        net.process(1).register_handler("test", lambda m: None)
        net.send(0, 1, "test", {})
        sim.run()
        assert net.process(1).lamport.value == 0

    def test_send_many_single_logical_step(self):
        """All copies of a one-to-many send carry the same timestamp."""
        sim, topo, net = _network()
        stamps = []
        for pid in (1, 2, 3):
            net.process(pid).register_handler(
                "test", lambda m: stamps.append(m.send_lamport))
        net.process(2).lamport.observe_receive(5)  # receiver clock differs
        net.send_many(0, [1, 2, 3], "test", {})
        sim.run()
        # Intra copy ts=0; both inter copies ts=1 (not 1 then 2).
        assert sorted(stamps) == [0, 1, 1]

    def test_delivery_filter_drops(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        net.add_delivery_filter(lambda m: m.dst != 1)
        net.send(0, 1, "test", {})
        sim.run()
        assert got == []
        assert net.stats.dropped == 1

    def test_duplicate_delivery_filter_rejected(self):
        """Installing one filter twice would double its observations."""
        sim, topo, net = _network()
        flt = lambda m: True
        net.add_delivery_filter(flt)
        with pytest.raises(ValueError, match="already installed"):
            net.add_delivery_filter(flt)

    def test_delivery_filter_removal(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        flt = lambda m: False
        net.add_delivery_filter(flt)
        net.send(0, 1, "test", {})
        sim.run()
        assert got == []
        net.remove_delivery_filter(flt)
        net.send(0, 1, "test", {})
        sim.run()
        assert len(got) == 1
        # A second removal is an error, not a silent no-op.
        with pytest.raises(ValueError, match="not installed"):
            net.remove_delivery_filter(flt)

    def test_bound_method_filter_round_trips(self):
        """Bound methods are re-created per attribute access; the
        dedup/removal API must match them by equality, not identity."""
        sim, topo, net = _network()

        class Counter:
            def flt(self, msg):
                return True

        counter = Counter()
        net.add_delivery_filter(counter.flt)
        with pytest.raises(ValueError, match="already installed"):
            net.add_delivery_filter(counter.flt)
        net.remove_delivery_filter(counter.flt)

    def test_delay_hook_perturbs_latency(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(sim.now))
        hook = lambda msg, delay: delay + 5.0
        net.add_delay_hook(hook)
        net.send(0, 1, "test", {})
        sim.run()
        assert got == [6.0]  # 1.0 intra latency + 5.0 injected
        net.remove_delay_hook(hook)
        net.send(0, 1, "test", {})
        sim.run()
        assert got[1] == pytest.approx(7.0)  # back to plain latency

    def test_delay_hooks_compose_in_order(self):
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(sim.now))
        net.add_delay_hook(lambda msg, delay: delay * 2.0)
        net.add_delay_hook(lambda msg, delay: delay + 1.0)
        net.send(0, 1, "test", {})  # (1.0 * 2) + 1
        sim.run()
        assert got == [3.0]

    def test_delay_hook_applies_to_send_many(self):
        sim, topo, net = _network()
        times = []
        for pid in (1, 2):
            net.process(pid).register_handler(
                "test", lambda m: times.append(sim.now))
        net.add_delay_hook(
            lambda msg, delay: delay + (4.0 if msg.inter_group else 0.0))
        net.send_many(0, [1, 2], "test", {})
        sim.run()
        assert times == [1.0, 14.0]  # intra untouched, inter 10+4

    def test_duplicate_delay_hook_rejected(self):
        sim, topo, net = _network()
        hook = lambda msg, delay: delay
        net.add_delay_hook(hook)
        with pytest.raises(ValueError, match="already installed"):
            net.add_delay_hook(hook)
        with pytest.raises(ValueError, match="not installed"):
            net.remove_delay_hook(lambda m, d: d)

    def test_bound_method_delay_hook_round_trips(self):
        """Same equality contract as delivery filters: a bound method
        is a fresh object per attribute access, so dedup and removal
        must match by ==, not identity."""
        sim, topo, net = _network()

        class Skewer:
            def hook(self, msg, delay):
                return delay

        skewer = Skewer()
        net.add_delay_hook(skewer.hook)
        with pytest.raises(ValueError, match="already installed"):
            net.add_delay_hook(skewer.hook)
        net.remove_delay_hook(skewer.hook)
        # Fully removed: a second removal is the not-installed error.
        with pytest.raises(ValueError, match="not installed"):
            net.remove_delay_hook(skewer.hook)

    def test_inject_copy_delivers_a_fresh_accounted_clone(self):
        """The duplication seam: the clone is a distinct Message (so
        corrupting one copy can't leak into the other), shares the
        payload dict, carries the original wire word, and is counted
        as a real extra copy on the wire."""
        sim, topo, net = _network()
        got = []
        net.process(1).register_handler("test", lambda m: got.append(m))
        net.send(0, 1, "test", {"x": 1})
        # Grab the in-flight copy from the trace's send event.
        original = net.trace.events[0].msg
        net.inject_copy(original, 0.5)
        sim.run()
        assert len(got) == 2
        clone = got[0] if got[0] is not original else got[1]
        assert clone is not original
        assert clone.payload is original.payload
        assert clone.wire == original.wire
        assert clone.src == original.src
        assert clone.dst == original.dst
        assert net.stats.duplicated == 1
        # Both copies were accounted as sends (stats and trace alike).
        assert net.stats.total_messages == 2
        sends = [e for e in net.trace.events if e.event == "send"]
        assert len(sends) == 2

    def test_duplicate_registration_rejected(self):
        sim, topo, net = _network()
        with pytest.raises(ValueError):
            net.register(Process(0, 0, sim))

    def test_unknown_kind_raises(self):
        sim, topo, net = _network()
        net.send(0, 1, "nohandler", {})
        with pytest.raises(KeyError):
            sim.run()

    def test_trace_records_participants(self):
        sim, topo, net = _network()
        net.process(1).register_handler("test", lambda m: None)
        net.send(0, 1, "test", {})
        sim.run()
        assert net.trace.participants() == {0, 1}

    def test_trace_disabled_records_nothing(self):
        sim, topo, net = _network(trace=False)
        net.process(1).register_handler("test", lambda m: None)
        net.send(0, 1, "test", {})
        sim.run()
        assert net.trace.events == []

    def test_sends_of_kind_prefix_query(self):
        sim, topo, net = _network()
        for pid in (1, 2):
            net.process(pid).register_handler("amc.ts", lambda m: None)
            net.process(pid).register_handler("amc.seq", lambda m: None)
            net.process(pid).register_handler("fd.hb", lambda m: None)
        net.send(0, 1, "amc.ts", {})
        net.send(0, 2, "fd.hb", {})
        net.send(0, 1, "amc.seq", {})
        net.send(0, 2, "amc.ts", {})
        sim.run()
        assert [e.msg.kind for e in net.trace.sends_of_kind("amc.")] == \
            ["amc.ts", "amc.seq", "amc.ts"]  # original send order
        assert len(net.trace.sends_of_kind("fd.")) == 1
        assert net.trace.sends_of_kind("nope") == []

    def test_sends_of_kind_index_invalidated_on_append(self):
        """The lazy index must not serve stale results after new sends."""
        sim, topo, net = _network()
        net.process(1).register_handler("amc.ts", lambda m: None)
        net.send(0, 1, "amc.ts", {})
        sim.run()
        assert len(net.trace.sends_of_kind("amc.")) == 1  # index built
        net.send(0, 1, "amc.ts", {})
        sim.run()
        assert len(net.trace.sends_of_kind("amc.")) == 2

    def test_trace_last_send_time_incremental(self):
        sim, topo, net = _network()
        net.process(1).register_handler("test", lambda m: None)
        assert net.trace.last_send_time() is None
        net.send(0, 1, "test", {})
        sim.run()
        assert net.trace.last_send_time() == 0.0


class TestProcess:
    def test_crashed_process_ignores_messages(self):
        sim, topo, net = _network()
        got = []
        proc = net.process(1)
        proc.register_handler("test", lambda m: got.append(m))
        proc.crashed = True
        proc.handle(Message(src=0, dst=1, kind="test", payload={}))
        assert got == []

    def test_duplicate_handler_rejected(self):
        sim, topo, net = _network()
        proc = net.process(0)
        proc.register_handler("k", lambda m: None)
        with pytest.raises(ValueError):
            proc.register_handler("k", lambda m: None)

    def test_crash_hooks_fire_once(self):
        sim, topo, net = _network()
        proc = net.process(0)
        fired = []
        proc.add_crash_hook(lambda: fired.append(1))
        proc.crash()
        proc.crash()
        assert fired == [1]


class TestBoundSends:
    """A registered process's ``send`` / ``send_many`` are the network's
    own, bound to its pid: the network's crash check is the only one,
    and a wrapper patched onto the class before the build sees every
    send."""

    @pytest.mark.parametrize("reliable", [False, True],
                             ids=["raw", "reliable"])
    def test_crashed_after_attach_sends_nothing(self, reliable):
        """Crashed after registration: neither bound call makes a copy
        or a stats entry, and a mounted transport sequences nothing."""
        sim, topo, net = _network(group_sizes=(2, 2))
        transport = None
        if reliable:
            transport = ReliableTransport(sim, net, random.Random(1))
            transport.mount()
        got = []
        for pid in (1, 2, 3):
            net.process(pid).register_handler(
                "amc.ts", lambda m: got.append(m.dst))
        sender = net.process(0)
        sender.crash()
        sender.send(1, "amc.ts", {})
        sender.send_many([1, 2, 3], "amc.ts", {})
        sim.run()
        assert got == []
        assert net.stats.total_messages == 0
        assert "amc.ts" not in net.stats.by_kind
        assert [e for e in net.trace.events if e.event == "send"] == []
        if reliable:
            assert transport.stats.wrapped_sends == 0
            assert transport.stats.data_copies == 0

    def test_live_process_sends_through_the_network(self):
        sim, topo, net = _network(group_sizes=(2, 2))
        got = []
        for pid in (1, 2, 3):
            net.process(pid).register_handler(
                "test", lambda m: got.append((m.src, m.dst)))
        net.process(0).send(1, "test", {})
        net.process(0).send_many([2, 3], "test", {})
        sim.run()
        assert sorted(got) == [(0, 1), (0, 2), (0, 3)]
        assert net.stats.total_messages == 3

    def test_unregistered_process_refuses_to_send(self):
        proc = Process(0, 0, Simulator())
        with pytest.raises(RuntimeError, match="not on a network"):
            proc.send(1, "test", {})
        with pytest.raises(RuntimeError, match="not on a network"):
            proc.send_many([1], "test", {})

    def test_wrapper_patched_before_the_build_sees_every_send(
            self, monkeypatch):
        """Counting wrappers on ``Network.send`` / ``send_many`` (the
        bench tracer's seam) installed before ``build_system``: on a
        transport-free A1 run their copies, ``len(dsts)`` per fan-out
        and one per point-to-point send, are every copy the network
        counted."""
        copies = {"send": 0, "send_many": 0}
        send, send_many = Network.send, Network.send_many

        def counting_send(self, src, dst, kind, payload):
            copies["send"] += 1
            send(self, src, dst, kind, payload)

        def counting_send_many(self, src, dsts, kind, payload):
            copies["send_many"] += len(dsts)
            send_many(self, src, dsts, kind, payload)

        monkeypatch.setattr(Network, "send", counting_send)
        monkeypatch.setattr(Network, "send_many", counting_send_many)
        system = build_system(SystemSpec(protocol="a1",
                                         group_sizes=(2, 2, 2)), seed=3)
        for i in range(12):
            system.cast_at(0.5 * i, i % 6, ((0, 1), (1, 2), (2,))[i % 3])
        system.run_quiescent()
        assert system.log.delivery_count() == 4 * 8 + 2 * 4
        assert copies["send_many"] > 0
        assert copies["send"] + copies["send_many"] \
            == system.network.stats.total_messages


class TestFanOutByLeg:
    """Deterministic work counters for ``send_many``: one envelope and
    one kernel event per leg where nothing mounted needs a ``Message``
    per copy, the per-copy path wherever something does."""

    DSTS = list(range(1, 17))  # 8 in the sender's group, 8 in the other

    @pytest.fixture
    def made(self, monkeypatch):
        """Every ``Message`` constructed, in order (test-side count)."""
        made = []
        init = Message.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Message, "__init__", counting_init)
        return made

    def _network(self, latency=None, trace=False):
        sim, topo, net = _network(
            (9, 8), latency or LatencyModel.logical(), trace=trace)
        seen = []
        for pid in topo.processes:
            net.process(pid).register_handler(
                "test", lambda m, pid=pid: seen.append(
                    (pid, m, m.dst, m.inter_group, m.send_lamport, m.wire)))
        net.process(0).lamport.value = 7
        return sim, net, seen

    def _assert_each_receiver_saw_its_copy(self, seen):
        assert [pid for pid, *_ in seen] == self.DSTS
        for pid, _, dst, inter, stamp, _ in seen:
            assert dst == pid
            assert inter == (pid >= 9)
            assert stamp == (8 if pid >= 9 else 7)

    def test_one_envelope_and_one_event_per_leg(self, made):
        sim, net, seen = self._network()
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 2
        assert sim.pending_events == 2
        sim.run()
        assert len(made) == 2 and sim.events_executed == 2
        self._assert_each_receiver_saw_its_copy(seen)
        assert {id(m) for _, m, *_ in seen} == {id(m) for m in made}
        assert net.stats.intra_group_messages == 8
        assert net.stats.inter_group_messages == 8
        assert net.stats.by_kind["test"] == 16

    def test_route_is_planned_once_per_destination_tuple(self, monkeypatch):
        sim, net, seen = self._network()
        plans = []
        plan = Network._plan_route
        monkeypatch.setattr(
            Network, "_plan_route",
            lambda self, src, dsts: plans.append((src, dsts))
            or plan(self, src, dsts))
        dsts = list(self.DSTS)
        net.send_many(0, dsts, "test", {})
        dsts.reverse()  # the key was the tuple of pids at send time
        dsts.reverse()
        net.send_many(0, dsts, "test", {})
        net.send_many(0, tuple(dsts), "test", {})
        assert plans == [(0, tuple(self.DSTS))]
        net.send_many(0, dsts[:3], "test", {})
        net.send_many(1, dsts, "test", {})
        assert len(plans) == 3

    def test_delay_hook_gets_a_message_per_copy(self, made):
        sim, net, seen = self._network()
        hooked = []
        net.add_delay_hook(lambda m, delay: hooked.append(m) or delay)
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 16 and hooked == made
        assert sim.pending_events == 2
        sim.run()
        self._assert_each_receiver_saw_its_copy(seen)
        assert [m for _, m, *_ in seen] == made

    def test_filter_installed_after_the_send_sees_its_own_copies(self, made):
        sim, net, seen = self._network()
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 2
        filtered = []
        net.add_delivery_filter(lambda m: filtered.append(m) or m.dst != 5)
        sim.run()
        assert len(made) == 2 + 16 and sim.events_executed == 2
        assert filtered == made[2:]
        assert [m.dst for m in filtered] == self.DSTS
        assert net.stats.dropped == 1
        assert [pid for pid, *_ in seen] == [p for p in self.DSTS if p != 5]
        assert len({id(m) for _, m, *_ in seen}) == 15

    def test_trace_gets_a_message_per_copy(self, made):
        sim, net, seen = self._network(trace=True)
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 16
        sim.run()
        self._assert_each_receiver_saw_its_copy(seen)
        sends = [e.msg for e in net.trace.events if e.event == "send"]
        delivers = [e.msg for e in net.trace.events if e.event == "deliver"]
        assert sends == made and delivers == made

    def test_trace_enabled_in_flight_gets_a_message_per_copy(self, made):
        sim, net, seen = self._network()
        net.send_many(0, self.DSTS, "test", {})
        net.trace.enabled = True
        sim.run()
        assert len(made) == 2 + 16
        self._assert_each_receiver_saw_its_copy(seen)
        assert [e.msg.dst for e in net.trace.events] == self.DSTS

    def test_transport_gets_a_frame_word_per_copy(self, made):
        from repro.transport import ReliableTransport

        sim, net, seen = self._network()
        for pid in range(17):
            net.process(pid).register_handler("fd.test", lambda m: None)
        ReliableTransport(sim, net, random.Random(1)).mount()
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 16
        assert all(m.wire is not None for m in made)
        net.send_many(0, self.DSTS, "test", {})
        # Sequence numbers are per link: the second frame on each.
        assert [m.wire >> 8 for m in made] == [0] * 16 + [1] * 16
        # A kind the transport does not cover feels the raw link and
        # needs no per-copy frame word.
        net.send_many(0, self.DSTS, "fd.test", {})
        assert len(made) == 32 + 2
        sim.run(until=1.5)
        assert [pid for pid, *_ in seen] == (
            self.DSTS[:8] * 2 + self.DSTS[8:] * 2)
        for pid, m, dst, _, _, wire in seen:
            assert dst == pid and wire is not None

    @pytest.mark.parametrize("latency, planned", [
        # No fixed link anywhere: such a network never looks a route up.
        (LatencyModel.wan(), 0),
        # One sampled link on the way: planned once, verdict remembered.
        (LatencyModel(Fixed(0.001), Jittered(1.0, 0.1)), 1),
    ])
    def test_sampled_delays_get_a_message_per_copy(self, made, latency,
                                                   planned):
        sim, net, seen = self._network(latency=latency)
        plans = []
        plan = Network._plan_route
        net._plan_route = lambda src, dsts: plans.append(dsts) or plan(
            net, src, dsts)
        net.send_many(0, self.DSTS, "test", {})
        net.send_many(0, self.DSTS, "test", {})
        assert len(made) == 32
        assert len(plans) == planned
        sim.run()
        assert sorted(pid for pid, *_ in seen) == sorted(self.DSTS * 2)
        for pid, m, dst, inter, stamp, _ in seen:
            assert dst == pid and inter == (pid >= 9)
            assert stamp == (8 if pid >= 9 else 7)

    def test_equal_intra_and_inter_delay_stays_one_event(self, made):
        """One bucket mixing scopes: a single event in destination
        order, each receiver with its own scope and stamp."""
        sim, net, seen = self._network(
            latency=LatencyModel(Fixed(1.0), Fixed(1.0)))
        net.send_many(0, [1, 9, 2, 10], "test", {})
        assert sim.pending_events == 1
        sim.run()
        assert [(pid, inter, stamp) for pid, _, _, inter, stamp, _ in seen] \
            == [(1, False, 7), (9, True, 8), (2, False, 7), (10, True, 8)]

    def test_receiver_crashed_by_an_earlier_handler_of_the_leg(self, made):
        sim, net, seen = self._network()
        net.process(2).register_handler(
            "kill", lambda m: net.process(4).crash())
        for pid in (1, 3, 4, 5):
            net.process(pid).register_handler(
                "kill", lambda m, pid=pid: seen.append(pid))
        net.send_many(0, [1, 2, 3, 4, 5], "kill", {})
        sim.run()
        assert len(made) == 1
        assert seen == [1, 3, 5]
        assert net.stats.dropped == 1

    def test_unknown_kind_on_a_leg_raises(self):
        sim, net, seen = self._network()
        net.send_many(0, [1, 2], "nohandler", {})
        with pytest.raises(KeyError, match="no handler for kind"):
            sim.run()
