"""Loss, duplication, corruption *and* reordering on one wire.

The transport restores exactly what quasi-reliable links promise —
every copy arrives, once — and nothing about order (§2.1).  This is the
composition that proves nothing above it leaned on FIFO: the three
lossy kinds together with ``delay-reorder`` in one ``AdversarySpec``
(Dolev et al.'s bar: unreliable *non-FIFO* channels), under A1, A2 and
the genuine transactional store, with every checker green and the run
self-stabilizing once the faults stop.
"""

import pytest

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import (
    DestinationSpec,
    ScenarioSpec,
    StoreSpec,
    WorkloadSpec,
)

UNTIL = 25.0
LOSSY_REORDER = AdversarySpec(
    name="lossy-reorder",
    injectors=tuple(
        InjectorSpec(kind=kind,
                     params=(("probability", p), ("until", UNTIL)))
        for kind, p in (("drop", 0.15), ("duplicate", 0.10),
                        ("corrupt", 0.05))
    ) + (InjectorSpec(kind="delay-reorder",
                      params=(("probability", 0.15), ("extra_min", 0.5),
                              ("extra_max", 5.0))),),
)

_CASTS = WorkloadSpec(kind="poisson", rate=1.0, duration=20.0,
                      destinations=DestinationSpec(kind="uniform-k", k=2))
SCENARIOS = {
    "a1": ScenarioSpec(
        name="compose-a1", protocol="a1", group_sizes=(3, 3),
        workload=_CASTS, transport="reliable",
        checkers=("properties", "stabilization")),
    "a2": ScenarioSpec(
        name="compose-a2", protocol="a2", group_sizes=(3, 3),
        workload=_CASTS, transport="reliable", start_rounds=True,
        checkers=("properties", "stabilization")),
    "store": ScenarioSpec(
        name="compose-store", protocol="a1", group_sizes=(3, 3, 3),
        store=StoreSpec(n_keys=18, routing="genuine", rate=1.0,
                        duration=20.0, multi_partition_fraction=0.4),
        transport="reliable",
        checkers=("properties", "stabilization", "serializability",
                  "convergence")),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nothing_above_the_transport_leans_on_fifo(scenario, seed):
    spec = SCENARIOS[scenario]
    system, _, applied = build_scenario_system(spec, seed, LOSSY_REORDER)
    system.run_quiescent()

    idle = [kind for kind, n in applied.fault_counts().items() if n == 0]
    assert not idle, f"{idle} never fired — the composition is vacuous"
    stats = system.transport.stats
    assert stats.out_of_order > 0, "no frame was released ahead of a gap"
    assert stats.released == stats.data_copies

    verdicts = run_checkers(system, spec)
    assert all(v == "ok" for v in verdicts.values()), verdicts
