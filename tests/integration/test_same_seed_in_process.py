"""Same seed, bit-identical run — also inside one interpreter.

Each run mints its own message ids from its simulation's catalog
(``MessageCatalog.mint``), so nothing a run does depends on the runs
before it in the process.  Every scenario here is built and run twice,
back to back, and the two runs must agree on the ids cast, every
process's delivery sequence, every delivery record and the number of
kernel events.

A1 breaks timestamp ties on ``(ts, mid)`` and A2 delivers a decided
batch in id order, both comparing ids as text, so ids that depended on
the process (a global counter) would change the delivery order once it
passed ``m999999``: ``m1000000`` sorts before it.  The boundary case
mints past that point from a throwaway system between the two runs.
"""

import dataclasses

import pytest

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.runtime.builder import SystemSpec, build_system
from repro.store.spec import StoreSpec

SEED = 42


def _poisson(rate, duration, destinations, senders=None):
    return WorkloadSpec(kind="poisson", rate=rate, duration=duration,
                        destinations=destinations, senders=senders)


A1 = ScenarioSpec(
    name="a1", protocol="a1", group_sizes=(3, 3, 3),
    latency=LatencySpec.logical(),
    workload=_poisson(60.0, 5.0, DestinationSpec(kind="uniform-k", k=2)),
    checkers=("properties",))

LOSS = AdversarySpec(name="lossy", injectors=tuple(
    InjectorSpec(kind=kind, params=(("probability", p), ("until", 5.0)))
    for kind, p in (("drop", 0.10), ("duplicate", 0.05),
                    ("corrupt", 0.02))))

#: name -> (scenario, adversary or None).
SCENARIOS = {
    "a1": (A1, None),
    "a2": (dataclasses.replace(
        A1, name="a2", protocol="a2", start_rounds=True,
        workload=_poisson(60.0, 5.0, DestinationSpec(kind="all"))), None),
    "store": (ScenarioSpec(
        name="store", protocol="a1", group_sizes=(2,) * 4,
        latency=LatencySpec.wan(),
        store=StoreSpec(n_keys=64, rate=0.12, duration=1500.0,
                        multi_partition_fraction=0.4),
        checkers=("properties", "serializability")), None),
    "reliable-under-loss": (dataclasses.replace(
        A1, name="lossy", transport="reliable",
        checkers=("properties", "stabilization")), LOSS),
    "heartbeat-crashes": (ScenarioSpec(
        name="hb", protocol="a1", group_sizes=(4,) * 4,
        latency=LatencySpec.logical(),
        workload=_poisson(2.0, 60.0, DestinationSpec(kind="uniform-k", k=2),
                          senders=tuple(p for p in range(16)
                                        if p not in (0, 5))),
        crashes=CrashSpec(kind="explicit", crashes=((0, 10.0), (5, 25.0))),
        detector="heartbeat", heartbeat_period=2.5, heartbeat_timeout=12.5,
        heartbeat_horizon=160.0,
        checkers=("properties",)), None),
}


def _observe(name):
    """Build and run scenario ``name``; what the run did, by value."""
    spec, adversary = SCENARIOS[name]
    system, _casts, _applied = build_scenario_system(spec, SEED,
                                                     adversary=adversary)
    system.run_quiescent(max_events=spec.max_events)
    log = system.log
    return {
        "mids": list(log.cast_map),
        "sequences": {pid: log.sequence(pid) for pid in log.processes()},
        "records": [(rec.msg.mid, rec.msg.sender, rec.cast_lamport,
                     rec.cast_time, rec.dest_groups,
                     list(rec.delivery_time.items()),
                     rec.max_delivery_lamport)
                    for rec in system.meter.records()],
        "events": system.sim.events_executed,
        "now": system.sim.now,
    }


def _mint_past_a_million():
    """Mint 1 100 000 ids from a throwaway system, 100 000 at a time."""
    catalog = build_system(SystemSpec(), seed=0).catalog
    for _ in range(11):
        last = catalog.mint(100_000)[-1]
    assert last == "m1099999"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_back_to_back_runs_are_identical(name):
    first = _observe(name)
    assert first["records"] and first["events"] > 0
    assert _observe(name) == first


@pytest.mark.parametrize("name", ["a1", "a2"])
def test_a_million_ids_minted_elsewhere_change_nothing(name):
    first = _observe(name)
    assert first["mids"][0] == "m000000"
    _mint_past_a_million()
    assert _observe(name) == first
