"""The one delivery record per message, and the log that reads it.

A built system keeps exactly one :class:`MessageRecord` per message, in
one table: its catalog's, which its :class:`LatencyMeter` and its
:class:`DeliveryLog` read as the same dict.  A record holds the cast
message; its ``delivery_time`` keys, in first-delivery order, are the
message's deliverers, and ``max_delivery_lamport`` is all the latency
degree needs.  The ``delivery_time`` map is shared and never changed
in place: a delivery replaces it with a successor, and a batch that
one process delivers at one instant shares one successor.  These tests
pin that contract, and that ``check_all`` reads it to the same verdict
— same message, same ``context`` — as the four-pass oracle, for
hand-fed logs and for a run of every protocol.
"""

import pytest

from repro.checkers.properties import PropertyViolation, check_all
from repro.clocks.latency import MessageRecord
from repro.core.interfaces import AppMessage
from repro.failure.schedule import CrashSchedule
from repro.net.message import MessageCatalog
from repro.net.topology import Topology
from repro.runtime.builder import PROTOCOLS, System, SystemSpec, build_system
from repro.runtime.results import DeliveryLog
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)

from test_checkers_streaming import oracle_check_all

TOPO = Topology([2, 2])


def _violation(check, *args):
    try:
        check(*args)
    except PropertyViolation as exc:
        return str(exc), exc.context
    return None


def _log(casts, deliveries):
    log = DeliveryLog()
    for msg in casts:
        log.record_cast(msg)
    by_mid = {msg.mid: msg for msg in casts}
    for pid, mid in deliveries:
        log.record_delivery(pid, by_mid.get(mid) or AppMessage(
            mid=mid, sender=0, dest_groups=(0, 1)))
    return log


class TestRecord:
    def test_record_is_slotted(self):
        rec = MessageRecord("m")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.per_pid_stamps = {}

    def test_deliverers_come_back_in_first_delivery_order(self):
        msg = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
        log = _log([msg], [(3, "a"), (0, "a"), (2, "a"), (1, "a")])
        assert log.deliveries_of("a") == [3, 0, 2, 1]
        assert list(log.record_map["a"].delivery_time) == [3, 0, 2, 1]
        assert log.deliveries_of("never") == []

    def test_standalone_logs_own_their_tables(self):
        msg = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
        first, second = _log([msg], [(0, "a")]), DeliveryLog()
        assert second.record_map == {}
        assert first.deliveries_of("a") == [0]


class _StubEndpoint:
    """Takes a built system's delivery callback, to feed it by hand."""

    def set_delivery_handler(self, handler):
        self.deliver = handler


class TestSharedMaps:
    """Copy-on-write ``delivery_time`` maps, shared by batch."""

    A = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
    B = AppMessage(mid="b", sender=0, dest_groups=(0, 1))

    def _stub_system(self):
        """A built (2, 2) system whose pids 0 and 1 are fed by hand."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        stubs = {pid: _StubEndpoint() for pid in (0, 1)}
        for pid, stub in stubs.items():
            system.install_endpoint(pid, stub)
        return system, stubs

    def _deliver_at(self, system, time, deliveries):
        """Feed ``(stub, msgs)`` batches in one event at ``time``."""
        def deliver():
            for stub, msgs in deliveries:
                stub.deliver(msgs)

        system.sim.call_at(time, deliver)
        system.run()

    def test_hand_fed_map_is_unchanged_by_later_deliveries(self):
        log = _log([self.A], [(0, "a")])
        taken = log.record_map["a"].delivery_time
        log.record_delivery(1, self.A)
        log.record_delivery(0, self.A)
        assert taken == {0: 0.0}
        assert log.record_map["a"].delivery_time == {0: 0.0, 1: 0.0}

    def test_hand_fed_batch_shares_one_map(self):
        log = _log([self.A, self.B], [(0, "a"), (0, "b"), (1, "a"),
                                      (1, "b")])
        maps = [log.record_map[mid].delivery_time for mid in "ab"]
        assert maps[0] is maps[1]
        assert list(maps[0]) == [0, 1]

    def test_meter_map_is_unchanged_by_later_deliveries(self):
        system, stubs = self._stub_system()
        system.record_cast(self.A)
        self._deliver_at(system, 1.0, [(stubs[1], (self.A,))])
        taken = system.meter.record_for("a").delivery_time
        self._deliver_at(system, 2.0, [(stubs[0], (self.A,))])
        self._deliver_at(system, 3.0, [(stubs[1], (self.A,))])
        assert taken == {1: 1.0}
        assert system.meter.record_for("a").delivery_time == {1: 3.0, 0: 2.0}

    def test_built_system_repeat_keeps_one_key_in_first_order(self):
        system, stubs = self._stub_system()
        for msg in (self.A, self.B):
            system.record_cast(msg)
        self._deliver_at(system, 1.0, [(stubs[1], (self.A, self.B))])
        first = system.log.record_map["a"].delivery_time
        self._deliver_at(system, 2.0, [(stubs[0], (self.A,)),
                                       (stubs[0], (self.B,))])
        self._deliver_at(system, 3.0, [(stubs[1], (self.A,))])
        rec_a, rec_b = (system.log.record_map[mid] for mid in "ab")
        assert first == {1: 1.0}
        assert list(rec_a.delivery_time.items()) == [(1, 3.0), (0, 2.0)]
        assert list(rec_b.delivery_time.items()) == [(1, 1.0), (0, 2.0)]
        assert system.log.deliveries_of("a") == [1, 0]
        assert [m.mid for m in system.log.sequences[1]] == ["a", "b", "a"]

    def test_built_system_batch_at_one_instant_shares_one_map(self):
        system, stubs = self._stub_system()
        for msg in (self.A, self.B):
            system.record_cast(msg)
        for time, pid in ((1.0, 0), (1.5, 1)):
            self._deliver_at(system, time, [(stubs[pid], (self.A, self.B))])
        rec_a, rec_b = (system.log.record_map[mid] for mid in "ab")
        assert rec_a.delivery_time is rec_b.delivery_time
        assert rec_a.delivery_time == {0: 1.0, 1: 1.5}

    def test_a2_run_maps_taken_mid_run_stay_as_they_were(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3, 3]),
                              seed=42)
        system.start_rounds()
        schedule_workload(system, poisson_workload(
            system.topology, system.rng.stream("wl"), rate=100.0,
            duration=20.0))
        system.run(until=10.0)
        taken = [(rec.delivery_time, dict(rec.delivery_time))
                 for rec in system.log.record_map.values()]
        assert any(len(copy) < 9 for _, copy in taken)
        system.run_quiescent()
        for shared, copy in taken:
            assert shared == copy
        records = system.log.record_map.values()
        assert all(len(rec.delivery_time) == 9 for rec in records)
        maps = {id(rec.delivery_time) for rec in records}
        assert len(records) >= 2_000
        assert len(maps) * 20 <= len(records), \
            f"{len(records)} records on {len(maps)} maps"


class TestCheckAllOnRecords:
    """``check_all`` words every record-level violation as the oracle."""

    A = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
    B = AppMessage(mid="b", sender=0, dest_groups=(0, 1))

    def _same_as_oracle(self, log, crashes=None):
        got = _violation(check_all, log, TOPO, crashes)
        assert got == _violation(oracle_check_all, log, TOPO, crashes)
        return got

    def test_repeated_delivery_keeps_one_key_and_fails_as_before(self):
        log = _log([self.A], [(0, "a"), (1, "a"), (0, "a"),
                              (2, "a"), (3, "a")])
        assert log.deliveries_of("a") == [0, 1, 2, 3]
        assert len(log.sequences[0]) == 2
        message, context = self._same_as_oracle(log)
        assert message == "process 0 delivered a more than once"
        assert context == {"property": "uniform_integrity",
                           "kind": "duplicate", "pid": 0, "mid": "a"}

    def test_uncast_delivery_fails_as_before(self):
        log = _log([self.A], [(pid, "a") for pid in range(4)]
                   + [(2, "ghost")])
        message, context = self._same_as_oracle(log)
        assert message == "process 2 delivered ghost, which was never cast"
        assert context == {"property": "uniform_integrity",
                           "kind": "uncast", "pid": 2, "mid": "ghost"}

    def test_never_delivered_cast_fails_as_before(self):
        log = _log([self.A, self.B], [(pid, "a") for pid in range(4)])
        message, context = self._same_as_oracle(log)
        assert message == ("correct addressee 0 never delivered b "
                           "(delivered by [])")
        assert context == {"property": "agreement_or_validity",
                           "kind": "missing", "pid": 0, "mid": "b",
                           "delivered_by": []}

    def test_cast_by_a_crashed_sender_may_go_undelivered(self):
        log = _log([self.A, self.B], [(pid, "a") for pid in range(4)])
        assert self._same_as_oracle(log, CrashSchedule({0: 1.0})) is None


def _store_system():
    """A store run: the cluster queues its own transactions."""
    from repro.store import StoreCluster, StoreSpec

    cluster = StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2, 2)),
        store=StoreSpec(n_keys=8, rate=1.0, duration=10.0,
                        multi_partition_fraction=0.4), seed=1)
    return cluster.system


def _loaded_system(protocol):
    """An A1 or A2 run under a Poisson workload to every group."""
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[2, 2]),
                          seed=2)
    system.start_rounds()
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=2.0, duration=5.0))
    return system


class TestOneTable:
    """The catalog's table is the run's only per-message table."""

    @pytest.mark.parametrize("make", [
        lambda: _loaded_system("a1"),
        lambda: _loaded_system("a2"),
        _store_system,
    ], ids=["a1", "a2", "store"])
    def test_catalog_log_and_meter_share_one_table(self, make):
        system = make()
        table = system.catalog.record_map
        assert system.log.record_map is table
        assert system.meter.record_map is table
        assert system.log.catalog is system.catalog
        system.run_quiescent()
        assert table and system.catalog.record_map is table
        for mid, rec in table.items():
            assert rec.msg.mid == mid
            assert system.catalog.get(mid) is rec.msg
            assert system.log.cast_map[mid] is rec.msg
            assert rec.delivery_time and rec.cast_lamport is not None
        assert list(system.log.cast_map) == list(table)
        check_all(system.log, system.topology, system.crashes)

    def test_a_simulation_takes_one_catalog(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        assert MessageCatalog.of(system.sim) is system.catalog
        with pytest.raises(ValueError, match="already has a catalog"):
            MessageCatalog().attach(system.sim)

    def test_second_message_under_a_known_mid_raises_before_stamping(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        first = system.cast(sender=0, dest_groups=(0, 1), mid="x")
        system.run_quiescent()
        rec = system.catalog.record_map["x"]
        stamped = (rec.msg, rec.cast_lamport, rec.cast_time,
                   rec.delivery_time, rec.max_delivery_lamport)
        events = system.sim.events_executed
        with pytest.raises(ValueError, match="'x'"):
            system.record_cast(AppMessage("x", sender=2, dest_groups=(0, 1)))
        assert rec.msg is first
        assert (rec.msg, rec.cast_lamport, rec.cast_time, rec.delivery_time,
                rec.max_delivery_lamport) == stamped
        assert list(system.catalog.record_map) == ["x"]
        assert system.sim.events_executed == events

    def test_hand_fed_uncast_delivery_is_never_cast(self):
        a = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
        log = _log([a], [(pid, "a") for pid in range(4)] + [(1, "ghost")])
        ghost = log.record_map["ghost"]
        assert ghost.msg is None and list(ghost.delivery_time) == [1]
        assert "ghost" not in log.cast_map and list(log.cast_map) == ["a"]
        with pytest.raises(PropertyViolation) as exc:
            check_all(log, TOPO)
        assert str(exc.value) == ("process 1 delivered ghost, which was "
                                  "never cast")
        assert exc.value.context == {"property": "uniform_integrity",
                                     "kind": "uncast", "pid": 1,
                                     "mid": "ghost"}

    def test_cast_after_its_hand_fed_delivery_takes_the_entry(self):
        a = AppMessage(mid="a", sender=0, dest_groups=(0, 1))
        log = DeliveryLog()
        log.record_delivery(0, a)
        log.record_cast(a)
        assert log.record_map["a"].msg is a
        assert list(log.record_map["a"].delivery_time) == [0]


class TestBuiltSystem:
    def _crash_run(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                              seed=7, crashes=CrashSchedule({1: 2.5, 4: 6.0}))
        msgs = [system.cast_at(0.5 * i, sender=(2 * i) % 9,
                               dest_groups=((i % 3), (i + 1) % 3))
                for i in range(30)]
        system.run_quiescent()
        return system, msgs

    def test_log_deliverers_are_the_meter_records(self):
        system, msgs = self._crash_run()
        check_all(system.log, system.topology, system.crashes)
        for msg in msgs:
            rec = system.meter.record_for(msg.mid)
            assert system.log.record_map[msg.mid] is rec
            assert system.log.deliveries_of(msg.mid) == \
                list(rec.delivery_time)
            # First-delivery order: the clock only moves forward.
            times = list(rec.delivery_time.values())
            assert times == sorted(times)
        delivered = sum(len(system.meter.record_for(m.mid).delivery_time)
                        for m in msgs)
        assert delivered == system.log.delivery_count()

    def test_record_reuses_the_cast_message_tuple(self):
        system, msgs = self._crash_run()
        for msg in msgs:
            assert system.meter.record_for(msg.mid).dest_groups \
                is msg.dest_groups

    def test_max_stamp_is_the_highest_delivering_clock(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=3)
        seen = {}
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.add_delivery_hook(lambda pid, m: seen.setdefault(
            pid, system.network.process(pid).lamport.value))
        system.run_quiescent()
        rec = system.meter.record_for(msg.mid)
        assert set(seen) == set(rec.delivery_time) == {0, 1, 2, 3}
        assert rec.max_delivery_lamport == max(seen.values())
        assert rec.latency_degree == 2


#: Protocols whose runs stay correct when one process of a group of
#: three crashes; skeen, global and detmerge assume crash-free runs.
CRASH_TOLERANT = ("a1", "a1-noskip", "a2", "fritzke", "nongenuine",
                  "optimistic", "ring", "sequencer")
GRID = ([(protocol, False) for protocol in sorted(PROTOCOLS)]
        + [(protocol, True) for protocol in CRASH_TOLERANT])


def _grid_run(protocol, crash, seed=5):
    """A Poisson run of ``protocol``, plus what each A-Deliver saw.

    The hook runs after the record is written, at the same instant and
    on the same clock, so ``(pid, mid, now, stamp)`` is what the record
    must hold.
    """
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[3, 3, 3]),
                          seed=seed,
                          crashes=CrashSchedule({1: 4.5}) if crash else None)
    seen = []
    system.add_delivery_hook(lambda pid, msg: seen.append(
        (pid, msg.mid, system.sim.now,
         system.network.process(pid).lamport.value)))
    multicast = hasattr(system.endpoints[0], "a_mcast")
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"), rate=2.0, duration=20.0,
        **({"destinations": uniform_k_groups(2)} if multicast else {}))
    schedule_workload(system, plans)
    system.run_quiescent()
    return system, seen


def _observe(system):
    """A run's records and sequences."""
    log = system.log
    return {
        "sequences": {pid: log.sequence(pid) for pid in log.processes()},
        "records": {
            mid: (rec.msg.sender, rec.cast_lamport, rec.cast_time,
                          rec.dest_groups, list(rec.delivery_time.items()),
                          rec.max_delivery_lamport)
            for mid, rec in log.record_map.items()},
    }


@pytest.fixture(scope="module")
def grid_runs():
    cache = {}

    def run(protocol, crash):
        if (protocol, crash) not in cache:
            cache[protocol, crash] = _grid_run(protocol, crash)
        return cache[protocol, crash]

    return run


@pytest.mark.parametrize(
    "protocol,crash", GRID,
    ids=[f"{protocol}-{'crash' if crash else 'no-crash'}"
         for protocol, crash in GRID])
class TestEveryProtocol:
    """Every protocol's A-Deliver stream writes the same one record."""

    def test_deliverers_are_the_log_sequences(self, grid_runs, protocol,
                                              crash):
        system, _ = grid_runs(protocol, crash)
        log = system.log
        delivered_by = {}
        for pid, sequence in log.sequences.items():
            for msg in sequence:
                delivered_by.setdefault(msg.mid, []).append(pid)
        assert delivered_by
        assert set(delivered_by) <= set(log.record_map)
        for mid, rec in log.record_map.items():
            assert system.meter.record_for(mid) is rec
            assert log.deliveries_of(mid) == list(rec.delivery_time)
            assert sorted(rec.delivery_time) == \
                sorted(delivered_by.get(mid, []))
        assert sum(len(rec.delivery_time)
                   for rec in log.record_map.values()) == \
            log.delivery_count()

    def test_stamps_are_the_delivering_clocks(self, grid_runs, protocol,
                                              crash):
        system, seen = grid_runs(protocol, crash)
        times, top = {}, {}
        for pid, mid, now, stamp in seen:
            times.setdefault(mid, {})[pid] = now
            top[mid] = max(top.get(mid, stamp), stamp)
        for mid, rec in system.log.record_map.items():
            assert list(rec.delivery_time.items()) == \
                list(times.get(mid, {}).items())
            assert rec.max_delivery_lamport == top.get(mid)
            if rec.delivery_time:
                delays = [t - rec.cast_time
                          for t in rec.delivery_time.values()]
                assert delays == sorted(delays) and delays[0] >= 0
                assert rec.latency_degree >= 0

    def test_check_all_agrees_with_the_oracle(self, grid_runs, protocol,
                                              crash):
        system, _ = grid_runs(protocol, crash)
        args = (system.log, system.topology, system.crashes)
        assert _violation(check_all, *args) is None
        assert _violation(oracle_check_all, *args) is None

    def test_replay_is_bit_identical(self, grid_runs, protocol, crash):
        system, _ = grid_runs(protocol, crash)
        replay, _ = _grid_run(protocol, crash)
        assert _observe(replay) == _observe(system)


def _per_message_install(self, pid, endpoint):
    """The reference delivery callback: each message of a batch on its
    own, reading the instant and the clock and appending to the
    sequence per message (the callback before it took batches)."""
    self.endpoints[pid] = endpoint
    cast = getattr(endpoint, "a_mcast", None)
    self._casts[pid] = (cast if cast is not None
                        else getattr(endpoint, "a_bcast", None))
    clock = self.network.process(pid).lamport
    sequences = self.log.sequences
    records = self.log.record_map
    sim = self.sim
    hooks = self._delivery_hooks
    taps = self._delivery_taps.setdefault(pid, [])
    before_last = now_last = after_last = None

    def on_deliver_one(msg):
        nonlocal before_last, now_last, after_last
        sequence = sequences.get(pid)
        if sequence is None:
            sequence = sequences[pid] = []
        sequence.append(msg)
        mid = msg.mid
        rec = records.get(mid)
        if rec is None:
            rec = records[mid] = MessageRecord(None)
        before = rec.delivery_time
        now = sim.now
        if before is before_last and now == now_last:
            rec.delivery_time = after_last
        else:
            before_last, now_last = before, now
            rec.delivery_time = after_last = {**before, pid: now}
        stamp = clock.value
        top = rec.max_delivery_lamport
        if top is None or stamp > top:
            rec.max_delivery_lamport = stamp
        for hook in hooks:
            hook(pid, msg)
        for tap in taps:
            tap(msg)

    def on_deliver(msgs):
        for msg in msgs:
            on_deliver_one(msg)

    endpoint.set_delivery_handler(on_deliver)


def _batched_run(protocol):
    """A warm (3, 3, 3) run under load, so rounds deliver batches, and
    what each hook call saw: ``(pid, mid, now, clock, n)`` with ``n``
    the records holding ``pid``'s delivery at that moment — a hook runs
    after its own message's record is written, before the next's."""
    system = build_system(SystemSpec(protocol=protocol,
                                     group_sizes=(3, 3, 3)), seed=11)
    records = system.log.record_map
    seen = []
    system.add_delivery_hook(lambda pid, msg: seen.append(
        (pid, msg.mid, system.sim.now,
         system.network.process(pid).lamport.value,
         sum(pid in rec.delivery_time for rec in records.values()))))
    system.start_rounds()
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=20.0, duration=8.0,
        **({"destinations": uniform_k_groups(2)}
           if protocol == "nongenuine" else {})))
    system.run_quiescent()
    return system, seen


@pytest.mark.parametrize("protocol", ["a2", "nongenuine"])
def test_batched_callback_equals_per_message_reference(monkeypatch,
                                                       protocol):
    """One call per round writes what one call per message wrote."""
    system, seen = _batched_run(protocol)
    monkeypatch.setattr(System, "install_endpoint", _per_message_install)
    reference, reference_seen = _batched_run(protocol)

    assert _observe(system) == _observe(reference)
    assert seen == reference_seen

    def maps(run):
        return len({id(rec.delivery_time)
                    for rec in run.log.record_map.values()})

    assert maps(system) == maps(reference)
    # The batches are real: rounds share maps across their messages.
    assert maps(system) < len(system.log.record_map)
    assert len(seen) > 500
