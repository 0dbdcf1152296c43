"""A cast plan is one kernel plan: same run, one queued event.

``schedule_workload`` / ``System.cast_plan`` queue a whole plan through
``Simulator.call_at_each``.  The oracle kept here is the per-cast loop
they replaced — one ``sim.call_at`` per planned cast — and the run must
be the same delivery for delivery and event for event.  A plan with a
time in the past changes nothing, and a queued plan costs one pending
event and a few hundred bytes per cast, not one ``Event`` each.  A whole
A2 run keeps no plan row, only what each cast leaves behind.
"""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import (
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.core.interfaces import AppMessage
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import SimulationError
from repro.store.cluster import StoreCluster
from repro.store.spec import StoreSpec
from repro.workload.generators import (
    all_groups,
    periodic_workload,
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


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
    system.add_cast_hook(
        lambda msg: seen.append((sim.now, "cast", msg.payload,
                                 sim.events_executed)))
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
        for plan in plans:
            msg = AppMessage.fresh(plan.sender, plan.dest_groups,
                                   plan.payload)
            system.sim.call_at(plan.time,
                               lambda m=msg: system._do_cast(m))
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


class TestPastTimes:
    def test_a_plan_with_one_past_time_changes_nothing(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=(2, 2)),
                              seed=3)
        system.sim.call_at(5.0, lambda: None)
        system.run()
        plans = periodic_workload(system.topology, period=1.0, count=4,
                                  start=6.0)
        plans[2] = dataclasses.replace(plans[2], time=1.0)
        probe = AppMessage.fresh(0, (0,)).mid
        with pytest.raises(SimulationError, match="cannot schedule at 1"):
            schedule_workload(system, plans)
        assert system.sim.pending_events == 0
        # No id was minted for the refused plan.
        assert int(AppMessage.fresh(0, (0,)).mid[1:]) == int(probe[1:]) + 1
        system.run_quiescent()
        assert not system.log.cast_map

    def test_cast_at_in_the_past_mints_nothing(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=(2, 2)),
                              seed=3)
        system.sim.call_at(5.0, lambda: None)
        system.run()
        probe = AppMessage.fresh(0, (0,)).mid
        with pytest.raises(SimulationError):
            system.cast_at(4.0, 0)
        assert int(AppMessage.fresh(0, (0,)).mid[1:]) == int(probe[1:]) + 1
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

    def test_a2_run_keeps_few_bytes_per_cast(self):
        """Set-up plus run of the ``a2_bcast`` plan (≈ 30 000 casts)
        keeps ≤ 600 traced bytes per cast (≈ 540 on CPython 3.11): one
        record per message, one ``delivery_time`` map per round batch,
        one cast table (the catalog's) and no plan rows.  A map per
        record, a second cast map and the plan kept read ≈ 980."""
        spec = ScenarioSpec(
            name="a2_bcast", protocol="a2", group_sizes=(3, 3, 3),
            latency=LatencySpec.logical(),
            workload=WorkloadSpec(kind="poisson", rate=100.0,
                                  duration=300.0,
                                  destinations=DestinationSpec(kind="all")),
            start_rounds=True)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system, casts, _ = build_scenario_system(spec, 42)
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
