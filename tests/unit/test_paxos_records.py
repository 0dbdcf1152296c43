"""One record per consensus instance: what it keeps, what it costs.

A decided record keeps the acceptor state (a late ``prepare`` or
``accept`` is answered exactly as before the decision), the decision and
the ``proposed`` flag; the proposer state, the ``accepted`` tally and the
candidate go.  The byte guard holds the retained cost per (endpoint,
decided instance) well below what seven parallel maps cost (≈ 370 B on
CPython 3.11).

Driven through :class:`ConsensusSequence`, an endpoint also drops the
fast-path records below its group floor, so what it keeps is flat in
the run's length; a late message at a dropped instance gets the reply
kinds it got before, at the same destinations.
"""

import gc
import random
import tracemalloc

import pytest

from repro.consensus.paxos import FORGOTTEN, PRUNE_EVERY, GroupConsensus
from repro.consensus.sequence import ConsensusSequence
from repro.failure.detectors import PerfectDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.kernel import Simulator
from repro.sim.process import Process

RETRY = 20.0


def _group(size=3, trace=False):
    sim = Simulator()
    topo = Topology([size])
    net = Network(sim, topo, LatencyModel(Fixed(1.0), Fixed(100.0)),
                  random.Random(0), trace=MessageTrace(trace))
    for pid in topo.processes:
        net.register(Process(pid, 0, sim))
    fd = PerfectDetector(sim, net, delay=2.0)
    stacks = {
        pid: GroupConsensus(net.process(pid), topo.members(0), fd,
                            retry_timeout=RETRY)
        for pid in topo.processes
    }
    return sim, net, stacks


class TestProposeNone:
    def test_propose_none_raises_before_sending_or_arming(self):
        """None reads as "no candidate": accepted, it sent nothing and
        re-armed its retry forever, so the run never quiesced."""
        sim, net, stacks = _group(trace=True)
        with pytest.raises(ValueError, match="proposed None"):
            stacks[1].propose(1, None)
        assert sim.pending_events == 0
        assert net.trace.events == []
        assert not stacks[1].decided(1)
        stacks[1].inv()
        # Nothing was recorded either: a real proposal still goes in.
        stacks[1].propose(1, ("v",))
        sim.run_until_quiescent(max_events=2000)
        assert all(stack.decision(1) == ("v",) for stack in stacks.values())


class TestDecidedRecord:
    def test_late_prepare_and_accept_are_answered_as_before(self):
        """The acceptor state outlives the decision: a late prepare
        learns the accepted (ballot, value), and a stale ballot below
        the promise is refused."""
        sim, net, stacks = _group(trace=True)
        stacks[0].propose(1, ("v",))
        sim.run_until_quiescent()
        acceptor = stacks[2]
        assert acceptor.decision(1) == ("v",)
        acceptor.inv()
        net.process(1).send(2, "cons.prepare", {"k": 1, "b": 1})
        net.process(0).send(2, "cons.accept",
                            {"k": 1, "b": 0, "value": ("w",)})
        sim.run_until_quiescent()
        promise, = net.trace.sends_of_kind("cons.promise")
        assert promise.msg.payload == {"k": 1, "b": 1, "ab": 0, "av": ("v",)}
        nack, = net.trace.sends_of_kind("cons.nack")
        assert nack.msg.payload == {"k": 1, "b": 0, "promised": 1}
        assert acceptor.decision(1) == ("v",)
        with pytest.raises(ValueError, match="proposed twice"):
            stacks[0].propose(1, ("v",))


class TestRecordBytes:
    def test_bytes_per_decided_instance_stay_small(self):
        """3 000 sequential instances on a 3-member group, each member
        proposing its own value (as A1 members propose their own message
        sets) from the previous decision."""
        last = 3000
        sim, net, stacks = _group()
        values = {pid: [None] + [(f"v{k}", pid) for k in range(1, last + 1)]
                  for pid in stacks}
        decided = dict.fromkeys(stacks, 0)

        def chain(pid):
            def on_decide(instance, value):
                decided[pid] += 1
                if instance < last:
                    stacks[pid].propose(instance + 1,
                                        values[pid][instance + 1])
            return on_decide

        for pid, stack in stacks.items():
            stack.set_decision_handler(chain(pid))
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for pid, stack in stacks.items():
                stack.propose(1, values[pid][1])
            sim.run_until_quiescent()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert all(count == last for count in decided.values())
        per_instance = retained / (len(stacks) * last)
        assert per_instance <= 250, f"{per_instance:.0f} B per instance"
        for stack in stacks.values():
            stack.inv()


class _CountingSequence(ConsensusSequence):
    """Records every raw decision its consensus hands it."""

    def __init__(self, *args, **kwargs):
        self.raw = []
        super().__init__(*args, **kwargs)

    def _on_raw_decision(self, instance, value):
        self.raw.append(instance)
        super()._on_raw_decision(instance, value)


def _sequenced_group(last, trace=False, sequence=ConsensusSequence):
    """A 3-member group, each member proposing its own value at every
    instance up to ``last`` from the previous release (as A1 does).
    ``releases`` counts each member's releases, which must be 1, 2, ..."""
    sim, net, stacks = _group(trace=trace)
    releases = dict.fromkeys(stacks, 0)
    seqs = {}

    def chain(pid):
        def on_decide(instance, value):
            assert instance == releases[pid] + 1, (pid, instance)
            releases[pid] = instance
            seqs[pid].advance_to(instance + 1)
            if instance < last:
                stacks[pid].propose(instance + 1, (f"v{instance + 1}", pid))
        return on_decide

    for pid, stack in stacks.items():
        seqs[pid] = sequence(stack, chain(pid))
    return sim, net, stacks, seqs, releases


def _start(seqs):
    for pid, seq in seqs.items():
        seq.consensus.propose(1, ("v1", pid))


class TestPrunedInstance:
    def test_late_messages_at_a_pruned_instance(self):
        """Each kind at an instance dropped below the group floor: the
        four that a decided record ignores are ignored without a
        record; forward, prepare and accept re-create it forgotten and
        get today's reply kinds at today's destinations."""
        last = 3 * PRUNE_EVERY
        sim, net, stacks, seqs, releases = _sequenced_group(
            last, trace=True, sequence=_CountingSequence)
        _start(seqs)
        sim.run_until_quiescent()
        assert all(count == last for count in releases.values())
        endpoint, k = stacks[2], 1
        assert k not in endpoint._instances
        assert endpoint.decided(k)
        with pytest.raises(KeyError, match="pruned"):
            endpoint.decision(k)
        with pytest.raises(ValueError, match="below its floor"):
            endpoint.propose(k, ("late", 2))
        raw = {pid: list(seq.raw) for pid, seq in seqs.items()}

        def replies_to(src, kind, payload):
            start = len(net.trace.events)
            net.process(src).send(2, kind, dict(payload, k=k))
            sim.run_until_quiescent()
            return [(e.msg.kind, e.msg.src, e.msg.dst, e.msg.payload)
                    for e in net.trace.events[start:]
                    if e.event == "send" and e.msg.src == 2]

        ignored = [
            (0, "cons.accepted", {"b": 0, "value": ("w",)}),
            (0, "cons.decide", {"value": ("w",)}),
            (1, "cons.promise", {"b": 1, "ab": -1, "av": None}),
            (1, "cons.nack", {"b": 1, "promised": 4}),
        ]
        for src, kind, payload in ignored:
            assert replies_to(src, kind, payload) == [], kind
            assert k not in endpoint._instances, kind
        forwarded = replies_to(1, "cons.forward", {"value": ("w",), "f": 1})
        assert forwarded == [("cons.decide", 2, 1,
                              {"k": k, "value": FORGOTTEN})]
        promised = replies_to(1, "cons.prepare", {"b": 1})
        assert promised == [("cons.promise", 2, 1,
                             {"k": k, "b": 1, "ab": 0, "av": FORGOTTEN})]
        nacked = replies_to(0, "cons.accept", {"b": 0, "value": ("w",)})
        assert nacked == [("cons.nack", 2, 0,
                           {"k": k, "b": 0, "promised": 1})]
        accepted = replies_to(1, "cons.accept", {"b": 4, "value": ("w",)})
        assert [(kind, dst) for kind, _, dst, _ in accepted] \
            == [("cons.accepted", dst) for dst in (0, 1, 2)]
        assert endpoint.decided(k)
        with pytest.raises(KeyError, match="pruned"):
            endpoint.decision(k)
        assert {pid: seq.raw for pid, seq in seqs.items()} == raw
        assert all(count == last for count in releases.values())
        for pid, stack in stacks.items():
            stack.inv()
            seqs[pid].inv()

    def test_record_off_the_fast_path_is_never_pruned(self):
        """Only ballot-0 fast-path records go: an acceptor that promised
        ballot 1 before the leader's ballot-0 accept refuses it, decides
        from its peers' votes and keeps that record, as does the leader
        its nack told of ballot 1; the third member drops its copy."""
        last = 3 * PRUNE_EVERY
        sim, net, stacks, seqs, releases = _sequenced_group(last)
        net.process(1).send(2, "cons.prepare", {"k": 1, "b": 1})
        sim.run_until_quiescent()
        _start(seqs)
        sim.run_until_quiescent()
        assert all(count == last for count in releases.values())
        assert all(stack._pruned > 1 for stack in stacks.values())
        assert stacks[2].decision(1) == stacks[0].decision(1) == ("v1", 0)
        assert 1 not in stacks[1]._instances
        for pid, stack in stacks.items():
            stack.inv()
            seqs[pid].inv()


def _retention(last):
    """Run a sequenced group to ``last``: (most live records any
    endpoint held at an event boundary, bytes retained at quiescence)."""
    sim, net, stacks, seqs, releases = _sequenced_group(last)
    most = 0
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _start(seqs)
        while sim.step():
            most = max(most, *(len(stack._instances)
                               for stack in stacks.values()))
        sim.run_until_quiescent()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert all(count == last for count in releases.values())
    for pid, stack in stacks.items():
        stack.inv()
        seqs[pid].inv()
    return most, retained


class TestRetention:
    def test_live_records_and_bytes_are_flat_in_run_length(self):
        """Every 64 decisions the records below the group floor go, so
        an endpoint never holds more than PRUNE_EVERY + group size
        records at an event boundary, and
        twice the instances retain no more than the bytes the 3 000-run
        retains (≈ 183 B per instance each without the floor)."""
        short_live, short_bytes = _retention(3000)
        long_live, long_bytes = _retention(6000)
        assert short_live <= PRUNE_EVERY + 3
        assert long_live <= PRUNE_EVERY + 3
        grown = (long_bytes - short_bytes) / (3 * 3000)
        assert grown <= 10, f"{grown:.1f} B per extra instance"
