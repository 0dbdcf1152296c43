"""Delivery history bounded by what is in flight.

Reliable multicast drops duplicates by rank (per original sender, the
gap-free rank and the ranks past a gap), A1 and A2 keep of the paper's
ADELIVERED set only ``_heard`` / ``_unheard``, and A1 recognises a late
(TS, m) copy by its rank, with ``_late_ts`` for the proposals a message's
final timestamp came without.  These tests pin the dedup rules, the two late
paths, the invariants at every event boundary and that none of this
state outlives the copies still in flight.
"""

import pytest

from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import (
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.checkers.properties import check_all
from repro.failure.schedule import CrashSchedule
from repro.net.message import Message
from repro.net.topology import Fixed, LatencyModel
from repro.rmcast.reliable import ReliableMulticast
from repro.runtime.builder import SystemSpec, build_system


def _slow(kind, dst, extra=5.0):
    """A delay hook holding back every ``kind`` copy to ``dst``."""
    return lambda msg, delay: (delay + extra
                               if msg.kind == kind and msg.dst == dst
                               else delay)


def _step(system, check):
    """Run to quiescence one kernel event at a time, calling ``check``
    at every event boundary."""
    check()
    while system.sim.pending_events:
        system.run(max_events=1)
        check()


class TestRankDedup:
    """One receiver, one sender (pid 0) addressing pids 0, 1, 2."""

    @staticmethod
    def _receiver():
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3]),
                              seed=1)
        rmc = ReliableMulticast(system.network.process(1), system.detector,
                                namespace="t")
        got = []
        rmc.set_delivery_handler(lambda data, mid, sender: got.append(mid))
        return rmc, got

    @staticmethod
    def _copy(rmc, rank, src=0):
        """The copy of pid 0's multicast ranked ``rank`` at every
        addressee, as ``src`` forwards it (a relay when src != 0)."""
        body = {"mid": f"m{rank}", "sender": 0, "dests": [0, 1, 2],
                "ranks": (rank, rank, rank), "data": {}}
        rmc._on_data(Message(src, 1, "t.data", body))

    def test_ranks_out_of_order_deliver_on_first_receipt(self):
        rmc, got = self._receiver()
        for rank in (3, 1, 2):
            self._copy(rmc, rank)
            rmc.inv()
        assert got == ["m3", "m1", "m2"]
        assert rmc._prefix == {0: 3}
        assert rmc._ahead == {}

    def test_gap_is_held_until_it_closes(self):
        rmc, got = self._receiver()
        self._copy(rmc, 2)
        self._copy(rmc, 4)
        assert rmc._prefix.get(0, 0) == 0
        assert rmc._ahead == {0: {2, 4}}
        self._copy(rmc, 4)  # past the gap, already here
        self._copy(rmc, 1)  # closes the first gap only
        rmc.inv()
        assert rmc._prefix == {0: 2}
        assert rmc._ahead == {0: {4}}
        self._copy(rmc, 3)
        rmc.inv()
        assert rmc._prefix == {0: 4}
        assert rmc._ahead == {}
        assert got == ["m2", "m4", "m1", "m3"]

    def test_relay_copy_after_the_original_is_dropped(self):
        rmc, got = self._receiver()
        self._copy(rmc, 1)
        self._copy(rmc, 1, src=2)  # pid 2's relay of the same multicast
        assert got == ["m1"]

    def test_relay_copy_first_drops_the_original(self):
        rmc, got = self._receiver()
        self._copy(rmc, 2, src=2)
        self._copy(rmc, 1)
        self._copy(rmc, 2)
        assert got == ["m2", "m1"]
        assert rmc._ahead == {}

    def test_each_addressee_gets_its_own_rank(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3]),
                              seed=1)
        rmc = [ReliableMulticast(process, system.detector, namespace="t")
               for process in system.network.processes()]
        for endpoint in rmc:
            endpoint.set_delivery_handler(lambda data, mid, sender: None)
        bodies = []
        system.network.add_delivery_filter(
            lambda msg: bodies.append(msg.payload) or True)
        rmc = rmc[0]
        rmc.multicast([0, 1, 2], {}, mid="a")
        rmc.multicast([1, 2], {}, mid="b")
        rmc.multicast([0, 2], {}, mid="c")
        system.run_quiescent()
        ranks = {body["mid"]: dict(zip(body["dests"], body["ranks"]))
                 for body in bodies}
        assert ranks == {"a": {0: 1, 1: 1, 2: 1}, "b": {1: 2, 2: 2},
                         "c": {0: 2, 2: 3}}

    def test_inv_catches_a_rank_held_at_the_gap(self):
        rmc, _ = self._receiver()
        self._copy(rmc, 3)
        rmc.inv()
        rmc._ahead[0].add(1)
        with pytest.raises(AssertionError):
            rmc.inv()


class TestLateCopies:
    def test_a1_late_ts_copy_after_an_s2_delivery(self):
        """Group 1's proposal beats group 0's, and its (TS, m) copies
        reach p1 late: p1 delivers m through p0's s2 decision, then the
        first copy of group 1's rank clears ``_late_ts`` and the second
        member's copy of it is a seen rank."""
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       latency=LatencyModel(intra=Fixed(0.01),
                                            inter=Fixed(1.0))),
            seed=3)
        for _ in range(4):  # push group 1's clock ahead
            system.cast(sender=2, dest_groups=(1,))
        system.network.add_delay_hook(_slow("amc.ts", 1))
        probe = system.cast_at(0.5, 0, (0, 1), mid="probe")
        endpoint = system.endpoints[1]
        late = []
        stages = set()

        def check():
            endpoint.inv()
            late.append(set(endpoint._late_ts.get("probe", ())))
            entry = endpoint.pending.get("probe")
            if entry is not None:
                stages.add(entry.stage)

        _step(system, check)
        assert {1} in late
        assert endpoint._late_ts == {}
        assert endpoint.ts_proposals == {}
        assert endpoint.pending == {}
        for pid in range(4):
            assert probe.mid in system.log.sequence(pid)
        assert system.meter.record_for("probe").latency_degree == 2
        check_all(system.log, system.topology)

    def test_a2_rdeliver_after_adeliver_is_not_reproposed(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.network.add_delay_hook(_slow("abc.rmc.data", 1))
        msg = system.cast(sender=0)
        endpoint = system.endpoints[1]
        unheard = []

        def check():
            endpoint.inv()
            unheard.append(msg.mid in endpoint._unheard)

        _step(system, check)
        assert any(unheard)
        assert endpoint._unheard == endpoint._heard == endpoint.fresh == set()
        for pid in range(4):
            assert system.log.sequence(pid) == [msg.mid]


class TestCastOnce:
    @pytest.mark.parametrize("protocol", ["a1", "a2"])
    def test_second_cast_of_a_mid_is_refused(self, protocol):
        system = build_system(
            SystemSpec(protocol=protocol, group_sizes=[3, 3]),
            seed=1)
        system.cast(sender=0, dest_groups=(0, 1), mid="x")
        system.run(until=2.002)
        with pytest.raises(ValueError, match="'x'"):
            system.cast(sender=0, dest_groups=(0, 1), mid="x")
        system.run_quiescent()
        record = system.meter.record_for("x")
        assert record.cast_time == 0.0
        for pid in system.topology.processes:
            assert system.log.sequence(pid) == ["x"]

    def test_scheduled_second_cast_is_refused_when_planned(self):
        """The first plan claims the name, so the second is refused
        before it queues anything, not mid-run when it fires."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        system.cast_at(0.0, 0, (0, 1), mid="x")
        pending = system.sim.pending_events
        with pytest.raises(ValueError, match="'x'"):
            system.cast_at(1.0, 1, (0, 1), mid="x")
        assert system.sim.pending_events == pending
        system.run_quiescent()
        assert system.meter.record_for("x").msg.sender == 0
        for pid in system.topology.processes:
            assert system.log.sequence(pid) == ["x"]


def _history(endpoint):
    """A1 endpoint's delivery-history entries: (rmcast, unheard,
    late (TS, m) proposals)."""
    return (sum(len(ahead) for ahead in endpoint.rmcast._ahead.values()),
            len(endpoint._unheard),
            sum(len(groups) for groups in endpoint._late_ts.values()))


class _InFlight:
    """Copies of the given kinds sent to and not yet handled by each
    process (no crashes, so none is dropped)."""

    def __init__(self, system, kinds):
        self.count = {}
        system.network.add_delay_hook(self._sent)
        for pid in system.topology.processes:
            handlers = system.network.process(pid)._handlers
            for kind in kinds:
                handlers[kind] = self._handled(handlers[kind])
        self.kinds = kinds

    def _sent(self, msg, delay):
        if msg.kind in self.kinds:
            key = (msg.dst, msg.kind)
            self.count[key] = self.count.get(key, 0) + 1
        return delay

    def _handled(self, handle):
        def wrapped(msg):
            self.count[(msg.dst, msg.kind)] -= 1
            handle(msg)
        return wrapped

    def __call__(self, pid, kind):
        return self.count.get((pid, kind), 0)


_WAN_CASTS = dict(rate=2.0, destinations=DestinationSpec(kind="uniform-k",
                                                        k=2))


class TestHistoryFlatInRunLength:
    """Under WAN jitter copies overtake each other, so every container
    is exercised; each entry waits on a copy still in flight, and at the
    end of the run nothing is left."""

    @pytest.mark.parametrize("duration", [40.0, 80.0])
    def test_a1_history_flat_in_run_length(self, duration):
        spec = ScenarioSpec(
            name="history-a1", protocol="a1", group_sizes=(3, 3, 3),
            latency=LatencySpec.wan(inter_jitter_ms=40.0),
            checkers=("properties",),
            workload=WorkloadSpec(kind="poisson", duration=duration,
                                  **_WAN_CASTS))
        system, _, _ = build_scenario_system(spec, 3)
        flight = _InFlight(system, ("amc.rmc.data", "amc.ts"))
        endpoints = list(system.endpoints.values())
        peak = [0, 0, 0]

        def check():
            for endpoint in endpoints:
                endpoint.inv()
                endpoint.rmcast.inv()
                pid = endpoint.process.pid
                gaps, unheard, late = _history(endpoint)
                data = flight(pid, "amc.rmc.data")
                # A gap waits on its rank's copy, an unheard message on
                # its R-Deliver copy, a late group on its (TS, m) copy.
                assert len(endpoint.rmcast._ahead) <= data
                assert unheard <= data
                assert late <= flight(pid, "amc.ts")
                for i, n in enumerate((gaps, unheard, late)):
                    peak[i] = max(peak[i], n)

        _step(system, check)
        assert system.log.delivery_count() > 5 * duration
        assert all(peak), peak  # every container was used
        for endpoint in endpoints:
            assert _history(endpoint) == (0, 0, 0)
            assert endpoint._heard == set()
        check_all(system.log, system.topology)

    @pytest.mark.parametrize("duration", [40.0, 80.0])
    def test_a2_history_flat_in_run_length(self, duration):
        spec = ScenarioSpec(
            name="history-a2", protocol="a2", group_sizes=(3, 3, 3),
            latency=LatencySpec.wan(inter_jitter_ms=40.0),
            checkers=("properties",), start_rounds=True,
            workload=WorkloadSpec(
                kind="poisson", duration=duration, rate=2.0,
                destinations=DestinationSpec(kind="all")))
        system, _, _ = build_scenario_system(spec, 3)
        flight = _InFlight(system, ("abc.rmc.data",))
        # pid 4 R-Delivers a round late: it A-Delivers first.
        system.network.add_delay_hook(_slow("abc.rmc.data", 4, 300.0))
        endpoints = list(system.endpoints.values())
        seen_unheard = []

        def check():
            for endpoint in endpoints:
                endpoint.inv()
                endpoint.rmcast.inv()
                data = flight(endpoint.process.pid, "abc.rmc.data")
                assert len(endpoint._unheard) <= data
                assert len(endpoint.rmcast._ahead) <= data
                assert endpoint._heard <= endpoint.fresh | endpoint._in_flight
                seen_unheard.append(len(endpoint._unheard))

        _step(system, check)
        assert max(seen_unheard) > 0
        assert system.log.delivery_count() > 5 * duration
        for endpoint in endpoints:
            assert endpoint._heard == endpoint._unheard == set()
            assert endpoint.rmcast._ahead == {}
        check_all(system.log, system.topology)


class TestInvariantsUnderCrash:
    """Pid 0 crashes with some of its last copies lost, so the
    survivors relay; every invariant holds at every event boundary."""

    @pytest.mark.parametrize("protocol", ["a1", "a2"])
    def test_invariants_hold_through_a_crash_and_relays(self, protocol):
        system = build_system(
            SystemSpec(protocol=protocol, group_sizes=[3, 3, 3],
                       latency=LatencyModel(intra=Fixed(0.01),
                                            inter=Fixed(1.0)),
                       detector_delay=0.5,
                       protocol_kwargs=(("relay_after", 2.0),)),
            seed=2, crashes=CrashSchedule({0: 3.0}))
        system.network.add_delivery_filter(
            lambda msg: not (msg.kind.endswith("rmc.data") and msg.src == 0
                             and msg.dst in (1, 5) and msg.send_time > 2.0))
        if protocol == "a2":
            system.start_rounds()
        dests = (0, 1, 2)
        for i in range(30):
            system.cast_at(0.1 * i, sender=i % 9,
                           dest_groups=dests if protocol == "a2"
                           else dests[:1 + i % 3])
        endpoints = list(system.endpoints.values())

        def check():
            for endpoint in endpoints:
                endpoint.inv()
                endpoint.rmcast.inv()

        _step(system, check)
        assert sum(endpoint.rmcast.relays for endpoint in endpoints) > 0
        # pids 1 and 5 got pid 0's last casts through relays only.
        assert system.log.sequence(1) == system.log.sequence(2)
        assert system.log.sequence(5) == system.log.sequence(4)
        check_all(system.log, system.topology, system.crashes)
