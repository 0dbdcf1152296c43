"""Unit tests for the Paxos-based uniform consensus substrate."""

import random
from itertools import permutations

import pytest

from repro.consensus.paxos import GroupConsensus
from repro.consensus.sequence import ConsensusSequence
from repro.failure.detectors import PerfectDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.kernel import Simulator
from repro.sim.process import Process


def _group(size=3, detector_delay=2.0, retry_timeout=20.0):
    """One group of ``size`` processes with consensus attached."""
    sim = Simulator()
    topo = Topology([size])
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(100.0)),
                  random.Random(0), trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, 0, sim))
    fd = PerfectDetector(sim, net, delay=detector_delay)
    decisions = {pid: {} for pid in topo.processes}
    stacks = {}
    for pid in topo.processes:
        stack = GroupConsensus(net.process(pid), topo.members(0), fd,
                               retry_timeout=retry_timeout)
        stack.set_decision_handler(
            lambda k, v, pid=pid: decisions[pid].setdefault(k, v))
        stacks[pid] = stack
    return sim, net, stacks, decisions


class TestFailureFree:
    def test_single_proposer_decides(self):
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("v0",))
        sim.run()
        assert all(decisions[p] == {1: ("v0",)} for p in decisions)

    def test_all_propose_same_decision(self):
        sim, net, stacks, decisions = _group()
        for pid, stack in stacks.items():
            stack.propose(1, (f"v{pid}",))
        sim.run()
        values = {tuple(decisions[p].items()) for p in decisions}
        assert len(values) == 1  # uniform agreement

    def test_decided_value_was_proposed(self):
        sim, net, stacks, decisions = _group()
        for pid, stack in stacks.items():
            stack.propose(1, (f"v{pid}",))
        sim.run()
        decided = decisions[0][1]
        assert decided in {("v0",), ("v1",), ("v2",)}  # uniform integrity

    def test_follower_proposal_can_win_via_forward(self):
        """A non-leader's value decides when the leader has none."""
        sim, net, stacks, decisions = _group()
        stacks[2].propose(1, ("follower",))
        sim.run()
        assert decisions[0][1] == ("follower",)

    def test_independent_instances(self):
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("a",))
        stacks[0].propose(2, ("b",))
        sim.run()
        assert decisions[1] == {1: ("a",), 2: ("b",)}

    def test_instance_numbers_may_skip(self):
        """A1 jumps instance numbers; consensus must not care."""
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("a",))
        stacks[0].propose(7, ("b",))
        stacks[1].propose(100, ("c",))
        sim.run()
        assert decisions[2] == {1: ("a",), 7: ("b",), 100: ("c",)}

    def test_double_propose_rejected(self):
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("a",))
        with pytest.raises(ValueError):
            stacks[0].propose(1, ("b",))

    def test_decided_query(self):
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("a",))
        assert not stacks[0].decided(1)
        sim.run()
        assert stacks[0].decided(1)
        assert stacks[0].decision(1) == ("a",)

    def test_group_of_one(self):
        sim, net, stacks, decisions = _group(size=1)
        stacks[0].propose(1, ("solo",))
        sim.run()
        assert decisions[0] == {1: ("solo",)}

    def test_quiescent_after_decision(self):
        """No timers or messages linger once everything decided."""
        sim, net, stacks, decisions = _group()
        stacks[0].propose(1, ("a",))
        sim.run_until_quiescent(max_events=100_000)
        assert all(decisions[p] for p in decisions)


class TestWithCrashes:
    def test_leader_crash_before_propose(self):
        """Rank-0 crashes pre-run; a follower leads a higher ballot."""
        sim, net, stacks, decisions = _group()
        net.process(0).crash()
        stacks[1].propose(1, ("v1",))
        stacks[2].propose(1, ("v2",))
        sim.run()
        assert decisions[1][1] == decisions[2][1]
        assert decisions[1][1] in {("v1",), ("v2",)}

    def test_leader_crash_mid_instance(self):
        """Leader crashes after accepting locally; survivors agree."""
        sim, net, stacks, decisions = _group(size=5)
        for pid, stack in stacks.items():
            stack.propose(1, (f"v{pid}",))
        # Crash the leader shortly after the proposals go out.
        sim.schedule(1.5, net.process(0).crash)
        sim.run()
        survivors = [p for p in decisions if p != 0]
        values = {decisions[p].get(1) for p in survivors}
        assert len(values) == 1 and None not in values

    def test_uniformity_with_early_decider_crash(self):
        """If a process decided then crashed, survivors decide the same."""
        sim, net, stacks, decisions = _group(size=3)
        for pid, stack in stacks.items():
            stack.propose(1, (f"v{pid}",))
        sim.run()
        # Everyone decided the same already (stronger than needed).
        assert decisions[0][1] == decisions[1][1] == decisions[2][1]

    def test_minority_crash_preserves_liveness(self):
        sim, net, stacks, decisions = _group(size=5)
        sim.schedule(0.5, net.process(3).crash)
        sim.schedule(0.5, net.process(4).crash)
        for pid, stack in stacks.items():
            stack.propose(1, (f"v{pid}",))
        sim.run()
        for pid in (0, 1, 2):
            assert 1 in decisions[pid]


class TestConsensusSequence:
    def test_buffers_out_of_order_decisions(self):
        class FakeConsensus:
            def __init__(self):
                self.handler = None

            def set_decision_handler(self, h):
                self.handler = h

            def propose(self, k, v):
                pass

        fake = FakeConsensus()
        released = []

        def on_decide(k, v):
            released.append((k, v))
            seq.advance_to(k + 1)

        seq = ConsensusSequence(fake, on_decide, first_instance=1)
        fake.handler(3, "c")
        fake.handler(2, "b")
        assert released == []  # waiting for instance 1
        fake.handler(1, "a")
        assert released == [(1, "a"), (2, "b"), (3, "c")]

    def test_non_contiguous_advance(self):
        class FakeConsensus:
            def set_decision_handler(self, h):
                self.handler = h

            def propose(self, k, v):
                pass

        fake = FakeConsensus()
        released = []

        def on_decide(k, v):
            released.append(k)
            seq.advance_to(k + 10)  # jump, as A1 does

        seq = ConsensusSequence(fake, on_decide, first_instance=1)
        fake.handler(1, "a")
        fake.handler(2, "stale-should-never-release")
        fake.handler(11, "b")
        assert released == [1, 11]

    def test_backward_advance_rejected(self):
        class FakeConsensus:
            def set_decision_handler(self, h):
                self.handler = h

        fake = FakeConsensus()
        seq = ConsensusSequence(fake, lambda k, v: None, first_instance=5)
        with pytest.raises(ValueError):
            seq.advance_to(5)

    def test_stale_duplicate_ignored(self):
        class FakeConsensus:
            def set_decision_handler(self, h):
                self.handler = h

        fake = FakeConsensus()
        released = []

        def on_decide(k, v):
            released.append(k)
            seq.advance_to(k + 1)

        seq = ConsensusSequence(fake, on_decide, first_instance=1)
        fake.handler(1, "a")
        fake.handler(1, "a")  # duplicate decide from another peer
        assert released == [1]


class _FloorConsensus:
    """A consensus double that keeps the floor its sequence promises."""

    def __init__(self):
        self.handler = None
        self.floor = 0

    def set_decision_handler(self, handler):
        self.handler = handler

    def set_floor(self, instance):
        assert instance >= self.floor, (self.floor, instance)
        self.floor = instance


class _BufferedSequence:
    """The reference: every decision goes through the buffer, one loop
    releases the buffered decisions while they match the cursor, and
    the floor follows the cursor after each loop."""

    def __init__(self, consensus, on_decide, first_instance=1):
        self.consensus = consensus
        self.on_decide = on_decide
        self.current = first_instance
        self._buffer = {}
        self._flushing = False
        consensus.set_decision_handler(self._on_raw_decision)
        consensus.set_floor(first_instance)

    def advance_to(self, instance):
        assert instance > self.current
        self.current = instance
        if not self._flushing:
            self._flush()

    def _on_raw_decision(self, instance, value):
        if instance < self.current:
            return
        self._buffer[instance] = value
        if not self._flushing:
            self._flush()

    def _flush(self):
        self._flushing = True
        try:
            while self.current in self._buffer:
                instance = self.current
                self.on_decide(instance, self._buffer.pop(instance))
                if self.current == instance:
                    break
        finally:
            self._flushing = False
        self.consensus.set_floor(self.current)


K = 5
#: Decided values, read as A1 reads a decision's timestamps: the client
#: moves to ``max(ts, K) + 1``.  "skip" jumps K+1 (its decision arrives
#: below the cursor), "contiguous" walks K..K+3 one by one.
VALUES = {
    "contiguous": {K: K, K + 1: K + 1, K + 2: K + 2, K + 3: K + 3},
    "skip": {K: K + 1, K + 1: K + 1, K + 2: K + 2, K + 3: K + 3},
}
#: The instances the client is handed, in order.
RELEASED = {"contiguous": [K, K + 1, K + 2, K + 3],
            "skip": [K, K + 2, K + 3]}


def _drive(cls, values, order, reentrant=False):
    """Feed ``order``'s decisions to a ``cls`` sequence at cursor K.

    Returns the client's calls (instance, value, and the floor the
    consensus held at the call and once the cursor moved, where A1
    proposes) and returns, the floor after each decision fed, and the
    final cursor and buffer.  ``reentrant``: the client, once it has
    moved its cursor, feeds the decision of its new instance, as a
    consensus deciding inside the client's own propose would.
    """
    consensus = _FloorConsensus()
    calls = []
    fed = set()

    def feed(instance):
        fed.add(instance)
        consensus.handler(instance, values[instance])

    def on_decide(instance, ts):
        floor = consensus.floor
        nxt = max(ts, instance) + 1
        seq.advance_to(nxt)
        calls.append((instance, ts, floor, consensus.floor))
        if reentrant and nxt in values and nxt not in fed:
            feed(nxt)
        calls.append(("returned", instance))

    seq = cls(consensus, on_decide, first_instance=K)
    floors = []
    for instance in order:
        feed(instance)
        floors.append(consensus.floor)
    return calls, floors, seq.current, seq._buffer


class TestSequenceMatchesBufferedReference:
    """Decisions for K..K+3 in every order, with a second copy of K's
    (it lands below the cursor): the sequence calls the client, with
    the floor the consensus holds at each call, and moves the floor
    exactly as a sequence that buffers every decision."""

    ORDERS = sorted(set(permutations([K, K, K + 1, K + 2, K + 3])))

    @pytest.mark.parametrize("reentrant", [False, True],
                             ids=["plain", "reentrant"])
    @pytest.mark.parametrize("client", sorted(VALUES))
    def test_every_order(self, client, reentrant):
        values = VALUES[client]
        assert len(self.ORDERS) == 60
        for order in self.ORDERS:
            got = _drive(ConsensusSequence, values, order, reentrant)
            want = _drive(_BufferedSequence, values, order, reentrant)
            assert got == want, order
            calls, floors, current, buffer = got
            assert current == K + 4, order
            assert [call[0] for call in calls if call[0] != "returned"] \
                == RELEASED[client], order
            # Only a skipped instance's decision, fed before the skip,
            # is left over (both sequences keep it).
            assert set(buffer) <= set(values) - set(RELEASED[client])

    def test_out_of_order_decision_waits_in_the_buffer(self):
        calls, floors, current, buffer = _drive(
            ConsensusSequence, VALUES["contiguous"], [K + 2, K + 1])
        assert calls == [] and current == K
        assert buffer == {K + 2: K + 2, K + 1: K + 1}
        assert floors == [K, K]

