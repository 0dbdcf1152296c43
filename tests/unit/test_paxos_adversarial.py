"""Adversarial Paxos tests: contention, noise, nacks, string instances."""

import random
from collections import Counter

from repro.consensus.paxos import GroupConsensus
from repro.failure.detectors import (
    EventuallyPerfectDetector,
    PerfectDetector,
)
from repro.net.network import Network
from repro.net.topology import Fixed, Jittered, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.kernel import Simulator
from repro.sim.process import Process


def _group(size=3, detector=None, seed=0, retry_timeout=20.0,
            jitter=False):
    sim = Simulator()
    topo = Topology([size])
    latency = LatencyModel(
        intra=Jittered(1.0, 0.5) if jitter else Fixed(1.0),
        inter=Fixed(100.0),
    )
    net = Network(sim, topo, latency, random.Random(seed),
                  trace=MessageTrace(False))
    for pid in topo.processes:
        net.register(Process(pid, 0, sim))
    if detector == "noisy":
        fd = EventuallyPerfectDetector(
            sim, net, random.Random(seed + 1), stabilise_at=60.0,
            false_suspicion_probability=0.3, delay=2.0,
        )
    else:
        fd = PerfectDetector(sim, net, delay=2.0)
    decisions = {pid: {} for pid in topo.processes}
    stacks = {}
    for pid in topo.processes:
        stack = GroupConsensus(net.process(pid), topo.members(0), fd,
                               retry_timeout=retry_timeout)
        stack.set_decision_handler(
            lambda k, v, pid=pid: decisions[pid].setdefault(k, v))
        stacks[pid] = stack
    return sim, net, stacks, decisions


class TestContention:
    def test_many_concurrent_instances(self):
        sim, net, stacks, decisions = _group(size=5, jitter=True)
        for k in range(1, 21):
            proposer = stacks[k % 5]
            proposer.propose(k, (f"v{k}",))
        sim.run()
        for pid in decisions:
            assert len(decisions[pid]) == 20
        # Agreement per instance across all members.
        for k in range(1, 21):
            values = {decisions[pid][k] for pid in decisions}
            assert values == {(f"v{k}",)}

    def test_all_propose_all_instances(self):
        """Heaviest contention: every member proposes in every instance."""
        sim, net, stacks, decisions = _group(size=3, jitter=True)
        for k in range(1, 6):
            for pid, stack in stacks.items():
                stack.propose(k, (f"p{pid}",))
        sim.run()
        for k in range(1, 6):
            values = {decisions[pid][k] for pid in decisions}
            assert len(values) == 1
            assert values.pop() in {("p0",), ("p1",), ("p2",)}

    def test_staggered_proposals_still_converge(self):
        sim, net, stacks, decisions = _group(size=3)
        stacks[1].propose(1, ("early",))
        sim.schedule(30.0, lambda: stacks[2].propose(1, ("late",)))
        sim.run()
        values = {decisions[pid][1] for pid in decisions}
        assert len(values) == 1


class TestNoisyDetector:
    def test_false_suspicions_cannot_break_agreement(self):
        """◊P mistakes cause competing ballots, never split decisions.

        Stepped one event at a time through the leader changes: every
        endpoint's records keep the Paxos invariants (``inv()``) and no
        two endpoints ever hold different decisions.
        """
        sent = Counter()
        for seed in range(8):
            sim, net, stacks, decisions = _group(size=3, detector="noisy",
                                                 seed=seed, jitter=True)
            for pid, stack in stacks.items():
                stack.propose(1, (f"p{pid}",))
            for _ in range(500_000):
                if not sim.step():
                    break
                for stack in stacks.values():
                    stack.inv()
                held = {stack.decision(1) for stack in stacks.values()
                        if stack.decided(1)}
                assert len(held) <= 1, f"seed {seed} split: {held}"
            sent.update(net.stats.by_kind)
            values = {decisions[pid].get(1) for pid in decisions}
            values.discard(None)
            assert len(values) <= 1, f"seed {seed} split: {values}"
        # The competing ballots ran the prepare, promise and nack paths.
        assert all(sent[f"cons.{kind}"] for kind in
                   ("prepare", "promise", "nack")), sent

    def test_eventual_decision_despite_noise(self):
        sim, net, stacks, decisions = _group(size=3, detector="noisy",
                                             seed=3, jitter=True)
        stacks[0].propose(1, ("v",))
        stacks[1].propose(1, ("w",))
        sim.run(max_events=500_000)
        # The detector stabilises at t=60; decisions must follow.
        for pid in decisions:
            assert 1 in decisions[pid]


class TestNackEscalation:
    def test_losing_ballot_retreats_and_retries(self):
        """A proposer whose ballot is beaten escalates via its timer
        instead of livelocking."""
        sim, net, stacks, decisions = _group(size=3, retry_timeout=10.0)
        # Crash the rank-0 leader *after* it promises nothing; member 1
        # and member 2 will duel with ballots 1 and 2.
        net.process(0).crash()
        stacks[1].propose(1, ("one",))
        stacks[2].propose(1, ("two",))
        sim.run(max_events=500_000)
        values = {decisions[pid].get(1) for pid in (1, 2)}
        assert len(values) == 1
        assert values.pop() in {("one",), ("two",)}

    def test_late_joiner_learns_via_forward_help(self):
        """Forwarding to a process that already decided triggers the
        catch-up decide reply."""
        sim, net, stacks, decisions = _group(size=3)
        stacks[0].propose(1, ("v",))
        sim.run()
        assert decisions[2][1] == ("v",)
        # Process 2 now proposes late; it must not hang or re-decide
        # differently.
        stacks[2].propose(2, ("w",))
        sim.run()
        assert decisions[0][2] == ("w",)


class TestStringInstances:
    """[10] keys instances by message id — exercised directly here."""

    def test_string_keys_work_end_to_end(self):
        sim, net, stacks, decisions = _group(size=3)
        stacks[0].propose("msg-abc", ("payload",))
        stacks[1].propose("msg-xyz", ("other",))
        sim.run()
        for pid in decisions:
            assert decisions[pid]["msg-abc"] == ("payload",)
            assert decisions[pid]["msg-xyz"] == ("other",)

    def test_mixed_key_types_are_independent(self):
        sim, net, stacks, decisions = _group(size=3)
        stacks[0].propose(1, ("int-keyed",))
        stacks[0].propose("1", ("str-keyed",))
        sim.run()
        assert decisions[1][1] == ("int-keyed",)
        assert decisions[1]["1"] == ("str-keyed",)


class TestQuiescenceOfConsensus:
    def test_no_lingering_timers_after_decisions(self):
        sim, net, stacks, decisions = _group(size=3)
        for k in range(1, 4):
            stacks[0].propose(k, (f"v{k}",))
        sim.run_until_quiescent(max_events=200_000)
        assert all(len(decisions[pid]) == 3 for pid in decisions)

    def test_timers_stop_even_with_crashed_minority(self):
        sim, net, stacks, decisions = _group(size=3)
        sim.schedule(0.5, net.process(2).crash)
        stacks[0].propose(1, ("v",))
        sim.run_until_quiescent(max_events=200_000)
        assert decisions[0][1] == ("v",)
        assert decisions[1][1] == ("v",)
