"""A cast plan is one kernel plan: same run, one queued event.

``schedule_workload`` / ``System.cast_plan`` queue a whole plan through
``Simulator.call_at_each``.  The oracle kept here is the per-cast loop
they replaced — one ``sim.call_at`` per planned cast — and the run must
be the same delivery for delivery and event for event.  A plan with a
time in the past changes nothing, and a queued plan costs one pending
event and a few hundred bytes per cast, not one ``Event`` each.  A whole
A2 run keeps no plan row, only what each cast leaves behind.

A plan is also built and turned into messages in one pass: a plan is
four columns from the draws to the queue, messages are made column by
column, a chooser that draws nothing is asked once per sender, and ids
come in one block.  The second oracle kept here is the per-row loop this
replaced: a row object per planned cast, the chooser called per cast,
rows put in time order by a stable sort, and an ``AppMessage(...)`` per
row with its id from a fresh catalog.  Each column, the shared
destination tuples, the ids, the rng's state after generation and the
messages' equality, hash and order must all be the loop's.
"""

import dataclasses
import gc
import random
import tracemalloc
from typing import NamedTuple, Tuple

import pytest

from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import (
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.checkers.properties import check_all
from repro.core.interfaces import (
    SLOTTED,
    AppMessage,
    MessageCatalog,
    frozen_rows,
)
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import SimulationError
from repro.store.cluster import StoreCluster
from repro.store.spec import StoreSpec
from repro.workload.generators import (
    WorkloadPlan,
    all_groups,
    burst_workload,
    fixed_groups,
    periodic_workload,
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
    zipf_group_count,
)


class Row(NamedTuple):
    """One planned cast, as the per-row loop made it."""

    time: float
    sender: int
    dest_groups: Tuple[int, ...]
    payload: object = None


def _rows(plan):
    return [Row(*row) for row in zip(plan.times, plan.senders,
                                     plan.dest_groups, plan.payloads)]


def _plan(rows):
    """The plan of ``rows``: its four columns."""
    return WorkloadPlan(*(list(column) for column in zip(*rows)))


def _sharing(dests):
    """Per row, the first row holding that very destination object."""
    first = {}
    return [first.setdefault(id(dest), i) for i, dest in enumerate(dests)]


def _run(protocol, destinations, as_plan):
    """A periodic plan on logical latency: integer delays and casts on
    integer instants, so casts tie with message arrivals all the time.

    Returns the per-process delivery sequences, every cast and delivery
    with its instant and the number of events executed before it, the
    total ``sim.events`` and the end time."""
    system = build_system(SystemSpec(protocol=protocol, group_sizes=(2, 2, 3)),
                          seed=11)
    sim = system.sim
    seen = []
    # Every cast path goes through record_cast: observe casts there.
    record_cast = system.record_cast

    def observe_cast(msg):
        record_cast(msg)
        seen.append((sim.now, "cast", msg.payload, sim.events_executed))

    system.record_cast = observe_cast
    system.add_delivery_hook(
        lambda pid, msg: seen.append((sim.now, pid, msg.payload,
                                      sim.events_executed)))
    if protocol == "a2":
        system.start_rounds()  # events queued before the plan
    plans = periodic_workload(system.topology, period=1.0, count=60,
                              destinations=destinations,
                              rng=random.Random(5))
    if as_plan:
        schedule_workload(system, plans)
    else:
        for row, mid in zip(_rows(plans), system.catalog.mint(len(plans))):
            msg = AppMessage(mid, row.sender, row.dest_groups, row.payload)
            system.sim.call_at(row.time, lambda m=msg: system._do_cast(m))
    system.run_quiescent()
    sequences = {pid: [msg.payload for msg in seq]
                 for pid, seq in system.log.sequences.items()}
    return sequences, seen, sim.events_executed, sim.now


class TestPlanOracle:
    @pytest.mark.parametrize("protocol, destinations", [
        ("a1", uniform_k_groups(2)),
        ("a2", all_groups),
    ], ids=["a1", "a2"])
    def test_plan_runs_as_one_call_at_per_cast(self, protocol,
                                               destinations):
        reference = _run(protocol, destinations, as_plan=False)
        assert sum(map(len, reference[0].values())) > 60
        assert _run(protocol, destinations, as_plan=True) == reference


# ----------------------------------------------------------------------
# The per-row plan loop, kept as the oracle of the one-pass build
# ----------------------------------------------------------------------
def _shared(destinations):
    seen = {}

    def choose(rng, topology, sender):
        dest = destinations(rng, topology, sender)
        return seen.setdefault(dest, dest)

    return choose


def loop_poisson(topology, rng, rate, duration, destinations):
    destinations = _shared(destinations)
    senders = topology.processes
    plans = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        sender = rng.choice(senders)
        plans.append(Row(
            time=t, sender=sender,
            dest_groups=destinations(rng, topology, sender),
            payload=len(plans)))
    return plans


def loop_periodic(topology, rng, period, count, destinations):
    destinations = _shared(destinations)
    senders = topology.processes
    plans = []
    for i in range(count):
        sender = senders[i % len(senders)]
        plans.append(Row(
            time=i * period, sender=sender,
            dest_groups=destinations(rng, topology, sender), payload=i))
    return plans


def loop_burst(topology, rng, bursts, burst_size, gap, destinations,
               spread=0.5):
    destinations = _shared(destinations)
    senders = topology.processes
    plans = []
    for b in range(bursts):
        base = b * gap
        for i in range(burst_size):
            sender = rng.choice(senders)
            plans.append(Row(
                time=base + rng.uniform(0.0, spread), sender=sender,
                dest_groups=destinations(rng, topology, sender),
                payload=(b, i)))
    return sorted(plans, key=lambda p: p.time)


#: name -> (one-pass generator, per-row oracle), same knobs.
GENERATORS = {
    "poisson": (
        lambda top, rng, dest: poisson_workload(top, rng, rate=20.0,
                                                duration=6.0,
                                                destinations=dest),
        lambda top, rng, dest: loop_poisson(top, rng, 20.0, 6.0, dest)),
    "periodic": (
        lambda top, rng, dest: periodic_workload(top, period=0.25,
                                                 count=90,
                                                 destinations=dest,
                                                 rng=rng),
        lambda top, rng, dest: loop_periodic(top, rng, 0.25, 90, dest)),
    "burst": (
        lambda top, rng, dest: burst_workload(top, rng, bursts=4,
                                              burst_size=25, gap=3.0,
                                              destinations=dest),
        lambda top, rng, dest: loop_burst(top, rng, 4, 25, 3.0, dest)),
    # Every cast of a burst at one instant: the stable time order, and
    # with it the mint order, is generation order within a burst.
    "burst-ties": (
        lambda top, rng, dest: burst_workload(top, rng, bursts=4,
                                              burst_size=25, gap=3.0,
                                              destinations=dest,
                                              spread=0.0),
        lambda top, rng, dest: loop_burst(top, rng, 4, 25, 3.0, dest,
                                          spread=0.0)),
}

#: name -> a factory of a fresh chooser (choosers keep per-plan state).
CHOOSERS = {
    "all": lambda: all_groups,
    "fixed": lambda: fixed_groups((2, 0, 2)),
    "zipf": lambda: zipf_group_count(3),
    **{f"uniform-{k}{'-own' if own else ''}":
       (lambda k=k, own=own: uniform_k_groups(k, include_sender_group=own))
       for k in (1, 2, 3) for own in (True, False)},
}


class TestPlanBuildOracle:
    @pytest.mark.parametrize("chooser", sorted(CHOOSERS))
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_rows_ids_draws_and_messages_match_the_loop(
            self, generator, chooser):
        build, loop = GENERATORS[generator]
        system = build_system(SystemSpec(protocol="a1",
                                         group_sizes=(2, 2, 3)), seed=2)
        top = system.topology
        rng = random.Random(9)
        plan = build(top, rng, CHOOSERS[chooser]())
        ref_rng = random.Random(9)
        reference = loop(top, ref_rng, CHOOSERS[chooser]())
        assert len(plan) == len(reference) > 50
        for column, values in zip(
                (plan.times, plan.senders, plan.dest_groups, plan.payloads),
                zip(*reference)):
            assert list(column) == list(values)
        assert rng.getstate() == ref_rng.getstate()
        # Casts to the same groups share one tuple, as in the loop: the
        # very same rows share one object.
        assert (_sharing(plan.dest_groups)
                == _sharing([row.dest_groups for row in reference]))

        msgs = system.cast_plan(plan)
        catalog = MessageCatalog()
        fresh = [AppMessage(mid, p.sender, p.dest_groups, p.payload)
                 for p, mid in zip(reference, catalog.mint(len(reference)))]
        assert [m.mid for m in msgs] == [m.mid for m in fresh]
        assert msgs == fresh
        assert list(map(hash, msgs)) == list(map(hash, fresh))
        by_new = sorted(range(len(msgs)), key=msgs.__getitem__)
        assert by_new == sorted(range(len(fresh)), key=fresh.__getitem__)
        assert all((new < ref) == (old < ref) for new, old, ref in
                   zip(msgs, fresh, fresh[1:] + fresh[:1]))
        # Both catalogs stopped at the same id.
        assert (system.catalog.mint(1) == catalog.mint(1)
                == ["m%06d" % len(plan)])

    def test_unsorted_and_duplicated_groups_are_normalised(self):
        system = build_system(SystemSpec(protocol="a1",
                                         group_sizes=(2, 2, 3)), seed=2)
        raw = [(2, 0, 2), (2, 0, 2), [1, 0], (0, 1), (1, 1)]
        plan = _plan((float(i + 1), i, dest, i)
                     for i, dest in enumerate(raw))
        msgs = system.cast_plan(plan)
        assert [m.dest_groups for m in msgs] == [
            (0, 2), (0, 2), (0, 1), (0, 1), (1,)]
        assert all(type(m.dest_groups) is tuple for m in msgs)
        assert msgs[0].dest_groups is msgs[1].dest_groups
        assert msgs[3].dest_groups is plan.dest_groups[3]
        assert msgs == [AppMessage(m.mid, p.sender, p.dest_groups,
                                   p.payload)
                        for p, m in zip(_rows(plan), msgs)]

    def test_named_and_fresh_ids_mix_in_plan_order(self):
        system = build_system(SystemSpec(protocol="a1",
                                         group_sizes=(2, 2)), seed=2)
        plans = _plan((float(i + 1), 0, (0,), i) for i in range(4))
        msgs = system.cast_plan(plans, mids=(None, "named", None, None))
        assert [m.mid for m in msgs] == [
            "m000000", "named", "m000001", "m000002"]
        with pytest.raises(ValueError, match="2 mids for 4"):
            system.cast_plan(plans, mids=(None, None))

    def test_rows_without_slots(self):
        """CPython 3.9 gives dataclasses no slots: the rows are then
        set through ``object.__setattr__``, and equal the same."""

        @dataclasses.dataclass(frozen=True, order=True)
        class Row:
            a: int
            b: tuple
            c: object = None

        rows = frozen_rows(Row, [2, 1], [(0,), (1, 2)], ["x", None])
        built = [Row(2, (0,), "x"), Row(1, (1, 2))]
        assert rows == built and sorted(rows) == sorted(built)
        assert list(map(hash, rows)) == list(map(hash, built))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[0].a = 3


class TestPastTimes:
    def test_a_plan_with_one_past_time_changes_nothing(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=3)
        system.sim.call_at(5.0, lambda: None)
        system.run()
        plans = periodic_workload(system.topology, period=1.0, count=4,
                                  start=6.0)
        plans.times[2] = 1.0
        with pytest.raises(SimulationError, match="cannot schedule at 1"):
            schedule_workload(system, plans)
        assert system.sim.pending_events == 0
        # No id was minted for the refused plan.
        assert system.catalog.mint(1) == ["m000000"]
        system.run_quiescent()
        assert not system.log.cast_map

    def test_cast_at_in_the_past_mints_nothing(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=(2, 2)),
                              seed=3)
        system.sim.call_at(5.0, lambda: None)
        system.run()
        with pytest.raises(SimulationError):
            system.cast_at(4.0, 0)
        assert system.catalog.mint(1) == ["m000000"]
        assert system.sim.pending_events == 0

    def test_partial_broadcast_plan_mints_nothing(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=(2, 2)),
                              seed=3)
        plans = _plan([(1.0, 0, (0, 1), None), (2.0, 1, (0,), None)])
        with pytest.raises(ValueError, match="broadcast protocol"):
            system.cast_plan(plans)
        assert system.catalog.mint(1) == ["m000000"]
        assert system.sim.pending_events == 0

    @pytest.mark.parametrize("protocol", ["a1", "a2"])
    @pytest.mark.parametrize("how", ["cast", "cast_at", "cast_plan"])
    def test_an_unknown_sender_mints_records_and_queues_nothing(
            self, protocol, how):
        """Checked apart from the broadcast rule: with every destination
        all groups (A2) or every endpoint multicasting (A1), a sender
        with no process still raises before anything changes."""
        system = build_system(SystemSpec(protocol=protocol,
                                         group_sizes=(2, 2)), seed=3)
        with pytest.raises(KeyError, match="no process 99"):
            if how == "cast":
                system.cast(sender=99)
            elif how == "cast_at":
                system.cast_at(1.0, 99)
            else:
                system.cast_plan(_plan([(1.0, 0, (0, 1), None),
                                        (2.0, 99, (0, 1), None)]))
        assert not system.catalog.record_map
        assert system.catalog.mint(1) == ["m000000"]
        assert system.sim.pending_events == 0

    @pytest.mark.parametrize("spec", [
        StoreSpec(start=4.0),
        # Transactions all ahead of the clock, the first balancer tick
        # (4.6 + 0.3) behind it.
        StoreSpec(start=4.6, rate=0.05, duration=60.0,
                  rebalance_interval=0.3, placement="ring"),
    ])
    def test_store_attach_in_the_past_mounts_and_queues_nothing(self,
                                                                spec):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        system.sim.call_at(5.0, lambda: None)
        system.run()
        with pytest.raises(SimulationError):
            StoreCluster.attach(system, spec)
        assert system.sim.pending_events == 0
        assert not hasattr(system, "store_cluster")
        assert not any(system._delivery_taps.values())

    def test_store_plan_is_one_pending_event(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        cluster = StoreCluster.attach(system, StoreSpec())
        assert len(cluster.plans) > 10
        assert system.sim.pending_events == 1


class TestACastIsFinal:
    def test_recording_a_delivered_cast_again_raises(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        rec = system.meter.record_for(msg.mid)
        stamps = (rec.cast_time, rec.cast_lamport, rec.worst_delivery_latency)
        with pytest.raises(ValueError, match="already cast"):
            system.record_cast(msg)
        assert (rec.cast_time, rec.cast_lamport,
                rec.worst_delivery_latency) == stamps

    @pytest.mark.parametrize("cast_first, mids", [
        (None, ("twice", None, "twice")),
        ("taken", (None, "taken")),
    ], ids=["repeated-in-plan", "already-in-catalog"])
    def test_a_plan_naming_a_cast_mid_changes_nothing(self, cast_first,
                                                      mids):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        if cast_first:
            system.cast(sender=0, dest_groups=(0,), mid=cast_first)
        pending = system.sim.pending_events
        plans = _plan((float(i + 1), 0, (0,), i) for i in range(len(mids)))
        with pytest.raises(ValueError, match="cast twice"):
            system.cast_plan(plans, mids=mids)
        assert system.sim.pending_events == pending
        assert system.catalog.mint(1) == ["m000000"]


#: The benchmark's ``a2_bcast`` scenario at 1x: a 30 148-cast plan.
A2_BCAST = ScenarioSpec(
    name="a2_bcast", protocol="a2", group_sizes=(3, 3, 3),
    latency=LatencySpec.logical(),
    workload=WorkloadSpec(kind="poisson", rate=100.0, duration=300.0,
                          destinations=DestinationSpec(kind="all")),
    start_rounds=True)


class TestPlanMemory:
    def test_a2_plan_is_one_event_and_few_bytes_per_cast(self):
        """A 30 000-cast A2 plan (the ``a2_bcast`` shape) after warm-up:
        one queued event for the whole plan and ≤ 400 traced bytes per
        planned cast (plan, message and queue entry; ≈ 985 when every
        cast was its own ``Event``, closure and label)."""
        system = build_system(SystemSpec(protocol="a2", group_sizes=(3, 3, 3)),
                              seed=42)
        system.start_rounds()
        warm = system.sim.pending_events
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plans = poisson_workload(system.topology,
                                     system.rng.stream("wl"),
                                     rate=100.0, duration=300.0)
            msgs = schedule_workload(system, plans)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(msgs) == len(plans) >= 29_000
        assert system.sim.pending_events <= warm + 1
        per_cast = retained / len(plans)
        assert per_cast <= 400, f"{per_cast:.0f} B per planned cast"

    def test_a2_set_up_peak_is_few_bytes_per_cast(self):
        """Building the ``a2_bcast`` system with its plan (≈ 30 000
        casts) peaks at ≤ 290 traced bytes per planned cast (≈ 222 on
        CPython 3.11), ≤ 40 of them above what set-up keeps (≈ 25): the
        plan is four columns from the draws to the queue, and its
        destinations are checked per distinct object, with no per-cast
        key.  An ``id`` per cast read ≈ 264 and 66 above; a row object
        per cast, read back into columns, ≈ 343 and 145 above.
        Without dataclass slots (CPython 3.9) every message carries a
        ``__dict__``, so there only the margin above what is kept is
        held to its bound."""
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            system, casts, _ = build_scenario_system(A2_BCAST, 42)
            peak = tracemalloc.get_traced_memory()[1] - before
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(casts) >= 29_000
        per_cast, above = peak / len(casts), (peak - kept) / len(casts)
        assert above <= 40, f"{above:.0f} B per planned cast above kept"
        if SLOTTED:
            assert per_cast <= 290, f"{per_cast:.0f} B peak per planned cast"

    def test_a2_run_keeps_few_bytes_per_cast(self):
        """Set-up plus run of the ``a2_bcast`` plan (≈ 30 000 casts)
        keeps ≤ 600 traced bytes per cast (≈ 540 on CPython 3.11): one
        record per message, one ``delivery_time`` map per round batch,
        one cast table (the catalog's) and no plan rows.  A map per
        record, a second cast map and the plan kept read ≈ 980."""
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system, casts, _ = build_scenario_system(A2_BCAST, 42)
            system.run_quiescent()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(casts) == len(system.log.record_map) >= 29_000
        assert system.log.delivery_count() == 9 * len(casts)
        per_cast = retained / len(casts)
        assert per_cast <= 600, f"{per_cast:.0f} B per cast"


class TestNamedMidsAreNeverMinted:
    def test_a_plan_named_mid_is_passed_over_by_later_casts(self):
        """A plan names ``m000001`` for t = 5; two casts at t = 0 mint
        around it, and the planned cast goes out under its name."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        planned = system.cast_plan(_plan([(5.0, 1, (0, 1), None)]),
                                   mids=("m000001",))[0]
        first = system.cast(sender=0, dest_groups=(0, 1))
        second = system.cast(sender=0, dest_groups=(0, 1))
        assert (first.mid, second.mid) == ("m000000", "m000002")
        system.run_quiescent()
        assert system.log.cast_map[planned.mid] is planned
        assert len(system.log.deliveries_of(planned.mid)) == 4
        check_all(system.log, system.topology)

    def test_a_name_claimed_by_a_pending_plan_is_refused_at_plan_time(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        system.cast_plan(_plan([(5.0, 1, (0,), None)]), mids=("x",))
        pending = system.sim.pending_events
        with pytest.raises(ValueError, match="cast twice"):
            system.cast_plan(_plan([(6.0, 0, (0,), None)]), mids=("x",))
        with pytest.raises(ValueError, match="cast twice"):
            system.cast(sender=0, dest_groups=(0,), mid="x")
        assert system.sim.pending_events == pending
        assert system.catalog.mint(1) == ["m000000"]

    def test_a_minted_pending_mid_is_refused_at_plan_time(self):
        """A plan mints ``m000000`` / ``m000001`` for t = 1 and t = 5; a
        later plan naming ``m000001`` for t = 3 must be refused then,
        before anything is claimed, minted or queued — not at t = 5,
        after its own cast went out under that id."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=1)
        first, second = system.cast_plan(
            _plan([(1.0, 0, (0, 1), "a"), (5.0, 2, (0, 1), "b")]))
        assert (first.mid, second.mid) == ("m000000", "m000001")
        catalog = system.catalog
        pending = system.sim.pending_events
        with pytest.raises(ValueError, match="minted already"):
            system.cast_plan(_plan([(3.0, 1, (0, 1), "c")]),
                             mids=("m000001",))
        with pytest.raises(ValueError, match="minted already"):
            system.cast(sender=1, dest_groups=(0, 1), mid="m000000")
        assert not catalog._named
        assert catalog._minted == 2
        assert system.sim.pending_events == pending
        system.run_quiescent()
        for msg in (first, second):
            assert system.log.cast_map[msg.mid] is msg
            assert sorted(system.log.deliveries_of(msg.mid)) == [0, 1, 2, 3]
        for sequence in system.log.sequences.values():
            assert [msg.payload for msg in sequence] == ["a", "b"]
        check_all(system.log, system.topology)

    def test_only_the_mints_own_form_below_its_cursor_is_refused(self):
        catalog = MessageCatalog()
        catalog.mint(3)
        for mid in ("m000000", "m000002"):
            with pytest.raises(ValueError, match="minted already"):
                catalog.name([mid])
        # Past the cursor, or not the mint's exact form: free to name.
        catalog.name(["m000003", "m0000001", "m01", "m+00001", "m٠٠٠٠٠١",
                      "x000001", "m"])
        assert catalog.mint(2) == ["m000004", "m000005"]

    def test_mint_passes_over_named_ids_in_order(self):
        catalog = MessageCatalog()
        catalog.name(["m000001", "m000003", "other"])
        assert catalog.mint(3) == ["m000000", "m000002", "m000004"]
        assert catalog.mint(1) == ["m000005"]
        with pytest.raises(ValueError, match="cast twice"):
            catalog.name(["fresh", "m000003"])
        assert "fresh" not in catalog._named  # all or nothing


class TestInternOnce:
    """A cast is interned once: by the system that records it, and the
    endpoint it reaches skips its own intern for that very message."""

    @pytest.fixture
    def interns(self, monkeypatch):
        calls = []
        intern = MessageCatalog.intern

        def counting(catalog, msg):
            calls.append(msg.mid)
            return intern(catalog, msg)

        monkeypatch.setattr(MessageCatalog, "intern", counting)
        return calls

    @pytest.mark.parametrize("protocol", ["a1", "a2", "skeen"])
    def test_a_system_cast_interns_once(self, interns, protocol):
        system = build_system(SystemSpec(protocol=protocol,
                                         group_sizes=(2, 2)), seed=1)
        now = system.cast(sender=0, dest_groups=(0, 1))
        later = system.cast_at(2.0, 1, (0, 1))
        system.run_quiescent()
        assert interns == [now.mid, later.mid]
        check_all(system.log, system.topology)

    @pytest.mark.parametrize("protocol", ["a1", "a2", "skeen"])
    def test_an_endpoint_cast_without_the_system_interns(self, interns,
                                                        protocol):
        system = build_system(SystemSpec(protocol=protocol,
                                         group_sizes=(2, 2)), seed=1)
        endpoint = system.endpoints[0]
        cast = getattr(endpoint, "a_mcast", None) or endpoint.a_bcast
        msg = AppMessage("bare", 0, (0, 1))
        cast(msg)
        assert interns == ["bare"]
        assert system.catalog.get("bare") is msg
        system.run_quiescent()
        assert len(system.log.deliveries_of("bare")) == 4

    @pytest.mark.parametrize("protocol", ["a1", "a2", "skeen"])
    def test_a_second_message_under_a_known_mid_sends_nothing(
            self, interns, protocol):
        system = build_system(SystemSpec(protocol=protocol,
                                         group_sizes=(2, 2)), seed=1)
        system.cast(sender=0, dest_groups=(0, 1), mid="known")
        endpoint = system.endpoints[1]
        cast = getattr(endpoint, "a_mcast", None) or endpoint.a_bcast
        stats = system.network.stats
        sent = (stats.inter_group_messages, stats.intra_group_messages)
        pending = system.sim.pending_events
        other = AppMessage("known", 1, (0, 1))
        with pytest.raises(ValueError, match="already cast"):
            system.record_cast(other)  # through the system
        with pytest.raises(ValueError, match="already cast"):
            cast(other)  # straight to an endpoint
        assert (stats.inter_group_messages,
                stats.intra_group_messages) == sent
        assert system.sim.pending_events == pending
        assert system.catalog.get("known").sender == 0
