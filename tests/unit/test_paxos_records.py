"""One record per consensus instance: what it keeps, what it costs.

A decided record keeps the acceptor state (a late ``prepare`` or
``accept`` is answered exactly as before the decision), the decision and
the ``proposed`` flag; the proposer state, the ``accepted`` tally and the
candidate go.  The byte guard holds the retained cost per (endpoint,
decided instance) well below what seven parallel maps cost (≈ 370 B on
CPython 3.11).
"""

import gc
import random
import tracemalloc

import pytest

from repro.consensus.paxos import GroupConsensus
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
