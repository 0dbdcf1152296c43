"""Retry timeouts of the Paxos endpoint: one alarm, exact deadlines.

Arming a retry only reserves its kernel slot; one alarm per endpoint is
queued for the earliest armed deadline, cancelled while nothing is armed
and revived in place by the next proposal.  A retry that does fire must
do so at exactly ``propose + retry_timeout`` (where a per-instance timer
would have), a finished group must quiesce at once, and neither a
pipelined group nor one that idles between instances may fill the heap
with cancelled timers.
"""

import random

import pytest

from repro.consensus.paxos import GroupConsensus
from repro.failure.detectors import PerfectDetector
from repro.net.network import Network
from repro.net.topology import Fixed, LatencyModel, Topology
from repro.net.trace import MessageTrace
from repro.sim.events import Event
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
    decisions = {pid: {} for pid in topo.processes}
    stacks = {
        pid: GroupConsensus(net.process(pid), topo.members(0), fd,
                            retry_timeout=RETRY)
        for pid in topo.processes
    }
    return sim, net, stacks, decisions


def _record_decisions(stacks, decisions):
    for pid, stack in stacks.items():
        stack.set_decision_handler(
            lambda k, v, pid=pid: decisions[pid].setdefault(k, v))


def _idle(stack):
    """No live alarm, and at most the suspended alarm's own entry."""
    alarm = stack._alarm
    return ((alarm is None or alarm.cancelled) and not stack._timer_armed
            and len(stack._timers) <= 1)


def _retry_entries(sim):
    """Heap entries (tombstones included) of retry alarms, per endpoint."""
    counts = {}
    for _time, _seq, item in sim._queue._heap:
        if type(item) is Event and item.label == "cons.retry":
            owner = item.action.__self__.process.pid
            counts[owner] = counts.get(owner, 0) + 1
    return counts


class TestRetryFiresAtItsOwnDeadline:
    def test_retry_after_leader_crash_at_exactly_propose_plus_timeout(self):
        sim, net, stacks, decisions = _group(trace=True)
        _record_decisions(stacks, decisions)
        sim.schedule(0.5, net.process(0).crash)
        # Not yet suspected at t=1 and t=2 (crash + delay = 2.5): both
        # forwards go to the dead leader and are lost.
        sim.schedule(1.0, lambda: stacks[1].propose(1, ("one",)))
        sim.schedule(2.0, lambda: stacks[1].propose(2, ("two",)))
        probes = []
        sim.schedule(21.5, lambda: probes.append(
            (stacks[1]._alarm.time, sorted(stacks[1]._timer_armed))))
        sim.run()
        assert decisions[1] == {1: ("one",), 2: ("two",)}
        assert decisions[2] == decisions[1]
        forwards = [e.time for e in net.trace.sends_of_kind("cons.forward")]
        assert forwards == [1.0, 2.0]
        # Pid 1 leads from its retries on: ballot 1 needs a prepare
        # phase, one per instance, each at its own deadline.
        prepares = sorted({e.time for e in
                           net.trace.sends_of_kind("cons.prepare")})
        assert prepares == [1.0 + RETRY, 2.0 + RETRY]
        # After the first retry fired, instance 1 was re-armed for
        # t=41 but the alarm sits at the head of the queue: instance 2.
        assert probes == [(2.0 + RETRY, [1, 2])]
        assert sim.pending_events == 0

    def test_stale_alarm_moves_on_to_the_next_armed_deadline(self):
        """The alarm queued for a decided instance must not swallow a
        later instance's retry, nor fire it early."""
        sim, net, stacks, decisions = _group(trace=True)
        _record_decisions(stacks, decisions)
        # Instance 1 decides normally; its alarm (t=20) stays queued
        # because instance 2 is armed before the decision.
        stacks[0].propose(1, ("one",))
        # Instance 2 is proposed by a follower whose forward is lost
        # with the leader.
        sim.schedule(1.0, lambda: stacks[1].propose(1, ("dup",)))
        sim.schedule(1.5, lambda: stacks[1].propose(2, ("two",)))
        sim.schedule(1.6, net.process(0).crash)
        sim.run()
        assert decisions[1][1] == ("one",)
        assert decisions[1][2] == ("two",)
        prepares = sorted({e.time for e in
                           net.trace.sends_of_kind("cons.prepare")})
        assert prepares == [1.5 + RETRY]


class TestQuiescence:
    def test_no_retry_pending_right_after_the_last_decision(self):
        sim, net, stacks, decisions = _group(size=1)
        _record_decisions(stacks, decisions)
        stacks[0].propose(1, ("solo",))
        assert sim.pending_events > 0
        while 1 not in decisions[0]:
            assert sim.step()
        assert sim.pending_events == 0
        assert _idle(stacks[0])

    def test_finished_group_stops_long_before_the_retry_timeout(self):
        sim, net, stacks, decisions = _group()
        _record_decisions(stacks, decisions)
        for k in range(1, 4):
            stacks[k % 3].propose(k, (f"v{k}",))
        end = sim.run_until_quiescent()
        assert all(len(decisions[pid]) == 3 for pid in decisions)
        assert end < RETRY
        for stack in stacks.values():
            assert _idle(stack)
            stack.inv()


class TestManyInstances:
    @pytest.mark.parametrize("gap", [0.0, 0.5], ids=["pipelined", "idling"])
    def test_at_most_one_retry_entry_per_endpoint_in_the_heap(self, gap):
        """1 000 instances, each proposed from the previous decision —
        at once, or after an idle gap during which nothing is armed."""
        last = 1000
        sim, net, stacks, decisions = _group()

        def chain(pid):
            def propose_next(instance):
                stacks[pid].propose(instance, (f"v{instance}",))

            def on_decide(instance, value):
                decisions[pid][instance] = value
                if instance == last:
                    return
                if gap:
                    sim.schedule(gap, lambda: propose_next(instance + 1))
                else:
                    propose_next(instance + 1)
            return on_decide

        for pid, stack in stacks.items():
            stack.set_decision_handler(chain(pid))
            stack.propose(1, ("v1",))
        worst_heap = worst_fifo = 0
        while sim.step():
            worst_heap = max([worst_heap, *_retry_entries(sim).values()])
            worst_fifo = max(worst_fifo, *(len(s._timers)
                                           for s in stacks.values()))
        assert all(len(decisions[pid]) == last for pid in decisions)
        assert worst_heap == 1
        # Stale entries are dropped each time the alarm comes round (and
        # whenever the endpoint idles), so the FIFO holds at most about
        # one retry_timeout's worth of instances.
        assert worst_fifo <= RETRY
        assert sim.now > 10 * RETRY  # the alarm did come round, often
        assert sim.pending_events == 0
