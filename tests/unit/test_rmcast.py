"""Unit tests for reliable multicast (non-uniform and uniform)."""

import itertools
import random

import pytest

from repro.failure.detectors import PerfectDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.rmcast.reliable import ReliableMulticast, UniformReliableMulticast
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.sim.process import Process


def _setup(group_sizes=(3, 3), uniform=False, relay_after=5.0,
           detector_delay=1.0):
    sim = Simulator()
    topo = Topology(list(group_sizes))
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(10.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, topo.group_of(pid), sim))
    fd = PerfectDetector(sim, net, delay=detector_delay)
    cls = UniformReliableMulticast if uniform else ReliableMulticast
    delivered = {pid: [] for pid in topo.processes}
    stacks = {}
    for pid in topo.processes:
        stack = cls(net.process(pid), fd, relay_after=relay_after)
        stack.set_delivery_handler(
            lambda data, mid, sender, pid=pid: delivered[pid].append(mid))
        stacks[pid] = stack
    return sim, topo, net, stacks, delivered


class TestValidity:
    def test_correct_sender_reaches_all_addressees(self):
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast([0, 1, 3, 4], {"x": 1}, mid="m1")
        sim.run()
        for pid in (0, 1, 3, 4):
            assert delivered[pid] == ["m1"]

    def test_non_addressees_deliver_nothing(self):
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast([0, 1], {}, mid="m1")
        sim.run()
        assert delivered[2] == []
        assert delivered[3] == []

    def test_self_delivery(self):
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast([0], {}, mid="m1")
        sim.run()
        assert delivered[0] == ["m1"]


class TestIntegrity:
    def test_no_duplicate_delivery(self):
        sim, topo, net, stacks, delivered = _setup(uniform=True)
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.run()
        # Eager relays produce many copies; each delivers once.
        for pid in range(6):
            assert delivered[pid] == ["m1"]


class TestAgreement:
    def test_lazy_relay_covers_faulty_sender(self):
        """Sender's copies to group 1 are dropped; relays recover them."""
        sim, topo, net, stacks, delivered = _setup(relay_after=5.0,
                                                   detector_delay=1.0)
        # Drop the initial copies addressed to group 1 (pids 3..5) —
        # only copies sent directly by pid 0, to model a faulty sender
        # whose sends partially completed.
        net.add_delivery_filter(
            lambda m: not (m.kind.endswith("rmc.data") and m.src == 0
                           and m.dst >= 3))
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.schedule(0.5, net.process(0).crash)  # sender really is faulty
        sim.run()
        for pid in (1, 2, 3, 4, 5):
            assert delivered[pid] == ["m1"], f"pid {pid} missed the relay"

    def test_no_relay_when_sender_correct(self):
        """Lazy relaying keeps the optimal message count."""
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.run()
        # Exactly one copy per addressee, no relays.
        assert net.stats.total_messages == 6

    def test_uniform_relays_eagerly(self):
        sim, topo, net, stacks, delivered = _setup(uniform=True)
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.run()
        # 6 initial copies + 5 relays from each of 6 receivers.
        assert net.stats.total_messages == 6 + 6 * 5

    def test_uniform_delivery_despite_partial_initial_send(self):
        sim, topo, net, stacks, delivered = _setup(uniform=True)
        net.add_delivery_filter(
            lambda m: not (m.src == 0 and m.dst >= 2
                           and m.kind.endswith("rmc.data")))
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.schedule(0.1, net.process(0).crash)
        sim.run()
        for pid in (1, 2, 3, 4, 5):
            assert delivered[pid] == ["m1"]


class TestQuiescence:
    def test_primitive_is_halting(self):
        """Finite casts leave a drained event queue (paper footnote 12)."""
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        stacks[3].multicast([3, 4, 5], {}, mid="m2")
        sim.run_until_quiescent(max_events=100_000)
        assert delivered[4] == ["m1", "m2"] or delivered[4] == ["m2", "m1"]

    def test_crashed_receiver_does_not_block(self):
        sim, topo, net, stacks, delivered = _setup()
        net.process(5).crash()
        stacks[0].multicast(list(range(6)), {}, mid="m1")
        sim.run_until_quiescent(max_events=100_000)
        assert delivered[5] == []
        assert delivered[4] == ["m1"]


class TestLatencyDegree:
    def test_degree_one_across_groups(self):
        """R-MCast to another group costs one inter-group hop."""
        sim, topo, net, stacks, delivered = _setup()
        stacks[0].multicast([0, 3], {}, mid="m1")
        sim.run()
        assert net.process(3).lamport.value == 1
        assert net.process(0).lamport.value == 0


class TestDestinationContract:
    """``multicast`` sends to ``dest_pids`` as given: its callers pass
    them ascending and duplicate-free."""

    @staticmethod
    def _recorded(system):
        passed = []
        for endpoint in system.endpoints.values():
            multicast = endpoint.rmcast.multicast

            def recording(dest_pids, payload, mid, multicast=multicast):
                passed.append(dest_pids)
                return multicast(dest_pids, payload, mid)

            endpoint.rmcast.multicast = recording
        return passed

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (2,) * 8])
    def test_a1_passes_normalised_pids_for_every_destination_set(
            self, sizes):
        system = build_system(SystemSpec(protocol="a1", group_sizes=sizes),
                              seed=1)
        topo = system.topology
        passed = self._recorded(system)
        dest_sets = [dests for k in range(1, len(sizes) + 1)
                     for dests in itertools.combinations(topo.group_ids, k)]
        for i, dests in enumerate(dest_sets):
            # Any order in: the pids still arrive normalised.
            system.cast(sender=i % topo.n_processes,
                        dest_groups=dests[::-1] if i % 2 else dests)
        assert len(passed) == len(dest_sets) == 2 ** len(sizes) - 1
        for dests, pids in zip(dest_sets, passed):
            assert list(pids) == sorted(
                {pid for gid in dests for pid in topo.members(gid)})

    def test_a2_passes_its_sorted_member_tuple(self):
        system = build_system(SystemSpec(protocol="a2",
                                         group_sizes=(3, 3, 3)), seed=1)
        passed = self._recorded(system)
        for pid in system.topology.processes:
            system.cast(sender=pid)
        for pid, pids in zip(system.topology.processes, passed):
            endpoint = system.endpoints[pid]
            assert pids is endpoint._members
            assert pids == tuple(system.topology.members(endpoint.my_gid))
            assert list(pids) == sorted(set(pids))
