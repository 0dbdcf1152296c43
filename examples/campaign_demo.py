#!/usr/bin/env python3
"""Campaign demo: declare a scenario matrix, run it over a process pool.

Shows the three-step campaign workflow:

1. declare a base :class:`ScenarioSpec` and expand it with
   :func:`matrix` along two axes (protocol × arrival rate),
2. execute the grid with :class:`CampaignRunner` — serially, then over
   a pool of ``JOBS`` worker processes — and verify the per-seed
   metrics are bit-identical,
3. persist the ``CAMPAIGN_demo.json`` artefact to a temporary directory
   (removed on exit) and print the markdown summary table.

Run:  python examples/campaign_demo.py

The built-in campaigns do the same at scale:
``python -m repro.cli campaign --list``.
"""

import os
import tempfile

from repro.campaigns import (
    Campaign,
    CampaignRunner,
    DestinationSpec,
    ScenarioSpec,
    WorkloadSpec,
    matrix,
    verify_determinism,
)

#: Worker processes for the parallel run: enough to show the pool's
#: determinism, and the same on every host.
JOBS = 2


def declare() -> Campaign:
    """A 2x2 grid: {A1, Skeen} x {calm, busy} Poisson traffic."""
    base = ScenarioSpec(
        name="demo",
        group_sizes=(2, 2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=0.4, duration=15.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=(1, 2, 3),
        checkers=("properties", "genuineness"),
    )
    scenarios = matrix(base, {
        "protocol": ["a1", "skeen"],
        "workload.rate": [0.4, 1.2],
    })
    return Campaign(name="demo", scenarios=scenarios,
                    description="campaign_demo.py example grid")


def main() -> None:
    campaign = declare()
    print(f"declared {len(campaign.scenarios)} scenarios x "
          f"{len(campaign.scenarios[0].seeds)} seeds = "
          f"{campaign.task_count} runs:")
    for spec in campaign.scenarios:
        print(f"  {spec.name}")

    serial = CampaignRunner(campaign, jobs=1).run()
    parallel = CampaignRunner(campaign, jobs=JOBS).run()

    # The executor's core guarantee: parallelism changes wall-clock
    # time only, never a single metric.
    verify_determinism(parallel, serial)
    print(f"\nserial {serial.wall_seconds:.2f}s vs jobs={JOBS} "
          f"{parallel.wall_seconds:.2f}s — per-seed metrics identical ✓")
    assert parallel.all_checkers_ok, parallel.failures()
    print("properties + genuineness checkers green on every run ✓\n")

    print(parallel.markdown_summary())

    with tempfile.TemporaryDirectory(prefix="campaign-demo-") as out_dir:
        path = parallel.write(out_dir)
        print(f"\nartefact: {path} ({os.path.getsize(path)} bytes, "
              f"removed on exit)")


if __name__ == "__main__":
    main()
