"""Event-free relay checks against the polling reference, whole runs.

Crash scenarios — scheduled crashes and the ``phase-crash`` adversary,
which crashes a process from inside a message handler — and a
crash-free run go once with ``PerfectDetector`` (relay checks parked
until a crash materialises them, and never asked for on a process
that cannot crash) and once with a subclass that inherits the
base-class poll and the base-class answer to ``can_suspect`` (one
kernel event per check on every sender, as before).  Everything a
run exposes about the protocol must be identical: who delivered what,
when, in which order, over how many copies of which kind.

The one thing that legitimately differs is where the clock stops: a
polling run executes no-op checks up to ``relay_after`` past the last
real event, an event-free run stops at the last real event.
"""

import dataclasses

import pytest

from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.failure.detectors import FailureDetector, PerfectDetector


class PollingPerfectDetector(PerfectDetector):
    """Same oracle, but every copy asks and every relay check polls:
    the reference."""

    call_if_suspected = FailureDetector.call_if_suspected
    can_suspect = FailureDetector.can_suspect


BASE = ScenarioSpec(
    name="relay-equivalence",
    group_sizes=(3, 3, 3),
    checkers=("properties",),
)

WORKLOADS = {
    "a1": WorkloadSpec(kind="poisson", rate=2.0, duration=30.0,
                       destinations=DestinationSpec(kind="uniform-k", k=2)),
    "a2": WorkloadSpec(kind="poisson", rate=2.0, duration=30.0,
                       destinations=DestinationSpec(kind="all")),
}

SCENARIOS = {
    # Nobody crashes: the detector is told so and parks nothing.
    "crash-free": BASE,
    # A caster and group leader dies mid-run, then a follower of
    # another group; detection lags the crash.
    "explicit-crash": dataclasses.replace(
        BASE, detector_delay=2.0,
        crashes=CrashSpec(kind="explicit",
                          crashes=((0, 7.3), (4, 12.0)))),
    # Short relay window: checks fall due while crashes are still
    # being detected, so some fire and some must not.
    "explicit-crash-short-window": dataclasses.replace(
        BASE, detector_delay=1.0,
        protocol_kwargs=(("relay_after", 1.5),),
        crashes=CrashSpec(kind="explicit",
                          crashes=((0, 7.3), (4, 12.0)))),
    # Crash raised from inside the handler of a consensus message.
    "phase-crash": dataclasses.replace(BASE, adversary="phase-crash"),
}


def _observe(spec, seed):
    system, _plans, _applied = build_scenario_system(spec, seed)
    system.run_quiescent(max_events=spec.max_events)
    log = system.log
    stats = system.network.stats
    relays = sum(endpoint.rmcast.relays
                 for endpoint in system.endpoints.values())
    return {
        "sequences": {pid: log.sequence(pid)
                      for pid in system.topology.processes},
        "delivery_times": {
            rec.msg.mid: (rec.cast_time, rec.delivery_time,
                                 rec.max_delivery_lamport)
            for rec in system.meter.records()},
        "stats": (stats.inter_group_messages, stats.intra_group_messages,
                  stats.dropped, stats.duplicated),
        "by_kind": dict(stats.by_kind),
        "verdicts": run_checkers(system, spec),
        "relays": relays,
    }, system.sim.now, system.sim.events_executed


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", ["a1", "a2"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_identical_to_polling_run(monkeypatch, scenario, protocol, seed):
    spec = dataclasses.replace(SCENARIOS[scenario], protocol=protocol,
                               workload=WORKLOADS[protocol])
    observed, end, events = _observe(spec, seed)
    monkeypatch.setattr("repro.runtime.builder.PerfectDetector",
                        PollingPerfectDetector)
    reference, reference_end, reference_events = _observe(spec, seed)

    assert observed == reference
    assert observed["verdicts"] == {"properties": "ok"}
    assert sum(len(seq) for seq in observed["sequences"].values()) > 0
    # Only no-op checks are gone, and with them the clock's idle tail.
    assert events < reference_events
    assert end <= reference_end


@pytest.mark.parametrize("protocol", ["a1", "a2"])
def test_crash_scenarios_do_relay(protocol):
    """The comparison above is only worth something if checks fire."""
    spec = dataclasses.replace(SCENARIOS["explicit-crash"],
                               protocol=protocol,
                               workload=WORKLOADS[protocol])
    observed, _end, _events = _observe(spec, 1)
    assert observed["relays"] > 0
