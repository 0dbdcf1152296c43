"""Property-based tests for the substrate (kernel, clocks, topology,
network fan-out)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.lamport import LamportClock
from repro.net.network import Network
from repro.net.topology import Fixed, Jittered, LatencyModel, Topology, Uniform
from repro.net.trace import MessageTrace
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_pop_order_is_nondecreasing(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while (e := q.pop()) is not None:
            popped.append(e.time)
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=100))
    def test_equal_times_preserve_fifo(self, times):
        q = EventQueue()
        order = []
        for i, t in enumerate(times):
            q.push(float(t), lambda i=i: order.append(i))
        while (e := q.pop()) is not None:
            e.action()
        # Within each timestamp class, indices must appear in FIFO order.
        by_time = {}
        for idx in order:
            by_time.setdefault(times[idx], []).append(idx)
        for idxs in by_time.values():
            assert idxs == sorted(idxs)


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=100))
    def test_clock_monotone_and_all_events_run(self, delays):
        sim = Simulator()
        observed = []
        for d in delays:
            sim.schedule(d, lambda: observed.append(sim.now))
        sim.run()
        assert len(observed) == len(delays)
        assert observed == sorted(observed)
        assert sim.now == max(observed)


class TestLamportClockProperties:
    @given(st.lists(st.tuples(st.sampled_from(["send_intra", "send_inter",
                                               "recv", "local"]),
                              st.integers(min_value=0, max_value=50)),
                    max_size=200))
    def test_clock_never_decreases(self, events):
        clock = LamportClock()
        last = clock.value
        for kind, arg in events:
            if kind == "send_intra":
                clock.timestamp_send(False)
            elif kind == "send_inter":
                clock.timestamp_send(True)
            elif kind == "recv":
                clock.observe_receive(arg)
            else:
                clock.local_event()
            assert clock.value >= last
            last = clock.value

    @given(st.integers(min_value=0, max_value=1000))
    def test_receive_is_idempotent(self, ts):
        clock = LamportClock()
        clock.observe_receive(ts)
        v = clock.value
        clock.observe_receive(ts)
        assert clock.value == v

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    def test_degree_equals_inter_group_hops(self, hops):
        """A relay chain's end clock counts exactly the inter hops."""
        clocks = [LamportClock() for _ in range(len(hops) + 1)]
        for i, inter in enumerate(hops):
            ts = clocks[i].timestamp_send(inter)
            clocks[i + 1].observe_receive(ts)
        assert clocks[-1].local_event() == sum(hops)


class TestTopologyProperties:
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                    max_size=8))
    def test_groups_partition_processes(self, sizes):
        topo = Topology(sizes)
        seen = []
        for gid in topo.group_ids:
            members = topo.members(gid)
            assert members, "groups are non-empty"
            for pid in members:
                assert topo.group_of(pid) == gid
            seen.extend(members)
        assert sorted(seen) == topo.processes
        assert len(seen) == sum(sizes)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2,
                    max_size=6),
           st.data())
    def test_processes_of_groups_sorted_and_deduped(self, sizes, data):
        topo = Topology(sizes)
        picks = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(sizes) - 1),
            min_size=1, max_size=10))
        result = topo.processes_of_groups(picks)
        assert result == sorted(set(result))
        for pid in result:
            assert topo.group_of(pid) in set(picks)


class TestLatencyModelProperties:
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=10.0, max_value=500.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_samples_positive_and_scoped(self, intra, inter, seed):
        model = LatencyModel(intra=Jittered(intra, intra / 10),
                             inter=Jittered(inter, inter / 10))
        rng = random.Random(seed)
        for _ in range(20):
            assert model.sample(0, 0, rng) >= intra
            assert model.sample(0, 1, rng) >= inter

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_uniform_within_bounds(self, lo, width, seed):
        dist = Uniform(lo, lo + width)
        rng = random.Random(seed)
        for _ in range(20):
            assert lo <= dist.sample(rng) <= lo + width


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.text(min_size=1, max_size=20))
    def test_streams_reproducible(self, seed, name):
        a = RngRegistry(seed).stream(name).random()
        b = RngRegistry(seed).stream(name).random()
        assert a == b

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.text(min_size=1, max_size=10),
           st.text(min_size=1, max_size=10))
    def test_distinct_names_are_independent(self, seed, n1, n2):
        if n1 == n2:
            return
        reg = RngRegistry(seed)
        assert reg.stream(n1) is not reg.stream(n2)


# ----------------------------------------------------------------------
# send_many: fan-out by leg == fan-out by copy
# ----------------------------------------------------------------------
_DELAYS = (0.5, 1.0, 2.0)  # few values, so intra == inter does happen


@st.composite
def _fanout_scripts(draw):
    """A topology, a fixed latency matrix and a script of sends."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    pids = st.integers(0, sum(sizes) - 1)
    delay = st.sampled_from(_DELAYS)
    pairwise = {}
    if len(sizes) > 1:
        gids = st.integers(0, len(sizes) - 1)
        pairwise = draw(st.dictionaries(
            st.tuples(gids, gids).filter(lambda pair: pair[0] != pair[1]),
            delay, max_size=3))
    lists = draw(st.lists(st.lists(pids, max_size=12),
                          min_size=1, max_size=4))
    which = st.integers(0, len(lists) - 1)
    return {
        "sizes": sizes,
        "intra": draw(delay), "inter": draw(delay), "pairwise": pairwise,
        "lists": lists,
        # (send instant, sender, destination list, kind, list the
        # receivers of kind "a" reply to)
        "sends": draw(st.lists(
            st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5)), pids,
                      which, st.sampled_from(("a", "b")), which),
            min_size=1, max_size=12)),
        # (killer, victim): the killer's first handler call crashes the
        # victim — mid-leg whenever one leg carries both.
        "crash": draw(st.none() | st.tuples(pids, pids)),
        # A per-copy seam mounted while copies are in flight.
        "seam": draw(st.none() | st.tuples(
            st.sampled_from(("filter", "trace")),
            st.sampled_from((0.1, 0.6, 1.1)), pids)),
    }


def _drive(script, per_copy):
    """Run ``script``; what every handler saw, the trace, the stats."""
    sim = Simulator()
    topo = Topology(script["sizes"])
    latency = LatencyModel(
        Fixed(script["intra"]), Fixed(script["inter"]),
        pairwise_inter={pair: Fixed(d)
                        for pair, d in script["pairwise"].items()})
    net = Network(sim, topo, latency, random.Random(0),
                  trace=MessageTrace(enabled=False))
    if per_copy:
        net.add_delay_hook(lambda msg, delay: delay)
    lists = script["lists"]
    seen = []
    for pid in topo.processes:
        process = Process(pid, topo.group_of(pid), sim)
        net.register(process)

        def handle(msg, process=process):
            seen.append((sim.now, msg.dst, msg.kind, msg.src,
                         msg.inter_group, msg.send_lamport,
                         process.lamport.value))
            if script["crash"] and script["crash"][0] == process.pid:
                net.process(script["crash"][1]).crash()
            if msg.kind == "a":
                process.send_many(lists[msg.payload["reply"]], "b", {})

        process.register_handler("a", handle)
        process.register_handler("b", handle)
    for at, src, dsts, kind, reply in script["sends"]:
        sim.call_at(at, lambda src=src, dsts=dsts, kind=kind, reply=reply:
                    net.process(src).send_many(lists[dsts], kind,
                                               {"reply": reply}))
    if script["seam"]:
        seam, at, pid = script["seam"]
        if seam == "filter":
            sim.call_at(at, lambda: net.add_delivery_filter(
                lambda msg: msg.dst != pid))
        else:
            sim.call_at(at, lambda: setattr(net.trace, "enabled", True))
    sim.run()
    traced = [(e.event, e.time, e.msg.src, e.msg.dst, e.msg.kind,
               e.msg.inter_group, e.msg.send_lamport, e.msg.send_time)
              for e in net.trace.events]
    stats = net.stats
    return (seen, traced, sim.events_executed, dict(stats.by_kind),
            dict(stats.by_kind_inter), stats.intra_group_messages,
            stats.inter_group_messages, stats.dropped)


class TestFanOutEquivalence:
    """The leg path (one envelope, one remembered route per send_many)
    is observably the per-copy path, which a no-op delay hook forces."""

    @settings(max_examples=200, deadline=None)
    @given(_fanout_scripts())
    def test_leg_path_equals_per_copy_path(self, script):
        assert _drive(script, per_copy=False) == _drive(script,
                                                        per_copy=True)
