"""Scalability sweep: how the paper's algorithms grow with the system.

Not a single paper artefact but the quantified version of Figure 1's
asymptotic columns: we sweep the number of groups and the group size
and measure, per algorithm, the inter-group messages per application
message and the (simulated) delivery latency.  The asymptotic claims —
O(k²d²) for A1, O(kd²) for the ring, O(n²) for A2's rounds — appear as
the growth rates of the measured columns.

Like :mod:`repro.experiments.rate_sweep`, this experiment is ported to
the campaign engine: :func:`scale_scenario` declares one (protocol,
groups, d) point, the sweeps run through a
:class:`~repro.campaigns.runner.CampaignRunner`, and ``jobs > 1``
spreads points over worker processes.

One deliberate behaviour change versus the pre-campaign version: the
uniform-k destination draws now come from the seed-derived ``"wl"``
stream (previously an implicit fixed ``random.Random(0)``), so
different seeds genuinely vary the destination pattern.  Absolute
table values at >2 groups shift slightly; the asymptotic growth rates
the benchmarks assert are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.campaigns.runner import Campaign, CampaignRunner, run_scenario_seed
from repro.campaigns.spec import DestinationSpec, ScenarioSpec, WorkloadSpec

#: Broadcast protocols must address every group.
BROADCAST_PROTOCOLS = ("a2", "nongenuine", "sequencer", "optimistic",
                       "detmerge")

SCALE_METRICS = ("latency", "traffic")


@dataclass
class ScalePoint:
    """One (protocol, groups, d) measurement."""

    protocol: str
    groups: int
    d: int
    messages: int
    inter_per_msg: float
    intra_per_msg: float
    mean_worst_latency: float


def scale_scenario(protocol: str, groups: int, d: int,
                   count: int = 10,
                   seeds: Sequence[int] = (1,)) -> ScenarioSpec:
    """Declare a steady workload at one system size."""
    # propose_delay trades sim-time latency for degree (each proposal
    # waits that long so a hand-placed cast catches it); under load the
    # second round in flight is what reaches degree 1 (core/abcast.py).
    kwargs: Tuple[Tuple[str, object], ...] = (
        (("propose_delay", 0.05),) if protocol in ("a2", "nongenuine")
        else ()
    )
    destinations = (DestinationSpec(kind="all")
                    if protocol in BROADCAST_PROTOCOLS
                    else DestinationSpec(kind="uniform-k", k=2))
    return ScenarioSpec(
        name=f"{protocol}@{groups}x{d}",
        protocol=protocol,
        group_sizes=(d,) * groups,
        workload=WorkloadSpec(kind="periodic", period=0.9, count=count,
                              destinations=destinations),
        seeds=tuple(seeds),
        checkers=("properties",),
        metrics=SCALE_METRICS,
        start_rounds=True,
        protocol_kwargs=kwargs,
    )


def _point_from_metrics(protocol: str, groups: int, d: int,
                        metrics: Dict[str, float]) -> ScalePoint:
    planned = int(metrics["planned_casts"])
    return ScalePoint(
        protocol=protocol,
        groups=groups,
        d=d,
        messages=planned,
        inter_per_msg=metrics["inter_group_messages"] / planned,
        intra_per_msg=metrics["intra_group_messages"] / planned,
        mean_worst_latency=metrics.get("latency_worst_mean", 0.0),
    )


def run_scale_point(protocol: str, groups: int, d: int, seed: int = 1,
                    count: int = 10) -> ScalePoint:
    """A steady workload at one system size, via the campaign engine."""
    spec = scale_scenario(protocol, groups, d, count=count)
    result = run_scenario_seed(spec, seed)
    if not result.ok:
        raise RuntimeError(f"checker failure at {spec.name}: "
                           f"{result.checkers}")
    return _point_from_metrics(protocol, groups, d, result.metrics)


def _run_points(points: List[Tuple[str, int, int]], seed: int,
                jobs: int = 1) -> List[ScalePoint]:
    """Run many (protocol, groups, d) points as one campaign."""
    campaign = Campaign(
        name="scalability",
        scenarios=[scale_scenario(p, g, d, seeds=(seed,))
                   for p, g, d in points],
        description="group-count / group-size sweeps of Figure 1",
    )
    result = CampaignRunner(campaign, jobs=jobs).run()
    if not result.all_checkers_ok:
        raise RuntimeError(f"checker failures: {result.failures()}")
    return [
        _point_from_metrics(p, g, d,
                            result.result(spec.name, seed).metrics)
        for (p, g, d), spec in zip(points, campaign.scenarios)
    ]


def sweep_groups(protocol: str, group_counts=(2, 4, 6), d: int = 2,
                 seed: int = 1, jobs: int = 1) -> Dict[int, ScalePoint]:
    """Grow the number of groups at fixed group size."""
    points = _run_points([(protocol, g, d) for g in group_counts],
                         seed, jobs=jobs)
    return dict(zip(group_counts, points))


def sweep_group_size(protocol: str, sizes=(2, 3, 4), groups: int = 2,
                     seed: int = 1, jobs: int = 1) -> Dict[int, ScalePoint]:
    """Grow the group size at a fixed group count."""
    points = _run_points([(protocol, groups, d) for d in sizes],
                         seed, jobs=jobs)
    return dict(zip(sizes, points))


def scalability_table(seed: int = 1) -> str:
    """Render the group-count sweep for the headline protocols."""
    from repro.runtime.results import Row, format_table

    rows: List[Row] = []
    for protocol in ("a1", "ring", "a2"):
        points = sweep_groups(protocol, seed=seed)
        for g, p in points.items():
            rows.append(Row(
                label=f"{protocol} @ {g} groups",
                values=[p.messages, f"{p.inter_per_msg:.1f}",
                        f"{p.intra_per_msg:.1f}",
                        f"{p.mean_worst_latency:.2f}"],
            ))
    return format_table(
        "Scalability sweep (d=2 per group; multicasts to k=2 of G; "
        "A2 broadcasts to all)",
        ["protocol @ size", "msgs", "inter/msg", "intra/msg",
         "mean worst lat"],
        rows,
        note=("A1's k is fixed at 2 so its inter/msg stays flat as G "
              "grows (genuineness!); A2 must involve every group, so "
              "its per-message cost grows with G — the tradeoff table "
              "in motion."),
    )
