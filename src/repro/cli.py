"""Command-line entry point: regenerate the paper's artefacts.

Usage::

    python -m repro.cli                 # run every experiment, print all
    python -m repro.cli fig1 theorems   # run a subset
    python -m repro.cli --list          # show experiments AND campaigns

    python -m repro.cli campaign cross-protocol --jobs 4
    python -m repro.cli campaign wan-storm --seeds 1,2,3 --out results/
    python -m repro.cli campaign crash-storm --jobs 8 --compare-serial

    python -m repro.cli torture --campaign torture --seeds 3
    python -m repro.cli torture --selftest --out torture-out
    python -m repro.cli replay COUNTEREXAMPLE_torture_s3.json

    python -m repro.cli store --protocol a1 --groups 2,2,2,2 --rate 1
    python -m repro.cli store --protocol a2 --routing broadcast

    python -m repro.cli rebalance --seeds 1,2,3 --out results/
    python -m repro.cli rebalance --explore --max-scenarios 2

Each experiment prints the same rows/series the paper reports (or that
our extension sections define); the benchmark suite asserts the shapes,
this CLI is for eyeballing and for regenerating EXPERIMENTS.md.

The ``campaign`` verb executes a built-in scenario matrix
(:mod:`repro.campaigns.library`) over ``--jobs`` worker processes,
writes ``CAMPAIGN_<name>.json`` plus a markdown summary into ``--out``,
and exits non-zero if any property/genuineness checker failed.
``--compare-serial`` re-runs the campaign with one job, asserts the
per-seed metrics are identical, and records the measured speedup in the
JSON artefact.

The ``store`` verb runs the transactional partitioned store
(:mod:`repro.store`) under one scenario — one-shot multi-partition
transactions routed by key ownership over genuine atomic multicast (or
broadcast-everything for the comparison) — checks one-copy
serializability and convergence, and prints commit latency plus the
per-group involvement table that quantifies genuineness.

The ``rebalance`` verb runs the elastic-repartitioning campaign
(:mod:`repro.reconfig`): the same zipf-skewed workload with the load
balancer off (the frozen epoch-0 map) and on, at 16 and 24 data
groups, every cell gated by the serializability and reconfig checkers.
It prints the static-vs-rebalance committed-throughput table and, with
``--explore``, aims the schedule explorer at the migration window and
shrinks any violation to a replayable counterexample.

The ``torture`` verb drives a campaign's scenario × adversary grid
through the adversarial schedule explorer: each case runs under its
named adversary, and any checker violation is automatically shrunk
(fewer faults, smaller topology, shorter horizon) to a minimal
counterexample written as a replayable ``COUNTEREXAMPLE_*.json``
artifact.  ``--selftest`` proves the pipeline catches real bugs by
hunting the intentionally broken FIFO-sequencer fixture.  The
``replay`` verb re-runs an artifact and asserts bit-identical checker
verdicts and delivery orders.

Host wall time, attributed layer by layer, is measured by ``python
bench/measure.py <workload> --trace DIR`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional


def _fig1() -> str:
    from repro.experiments.figure1 import fig1a_table, fig1b_table

    return fig1a_table() + "\n\n" + fig1b_table()


def _theorems() -> str:
    from repro.experiments.theorems import theorem_table

    return theorem_table()


def _lower_bounds() -> str:
    from repro.experiments.lower_bounds import lower_bound_table

    return lower_bound_table()


def _rate_sweep() -> str:
    from repro.experiments.rate_sweep import rate_table

    return rate_table()


def _tradeoff() -> str:
    from repro.experiments.tradeoff import tradeoff_table

    return tradeoff_table()


def _ablation() -> str:
    from repro.experiments.ablation import ablation_table

    return ablation_table()


def _prediction() -> str:
    from repro.experiments.prediction import prediction_table

    return prediction_table()


def _scalability() -> str:
    from repro.experiments.scalability import scalability_table

    return scalability_table()


def _wan() -> str:
    from repro.experiments.wan_heterogeneity import heterogeneity_table

    return heterogeneity_table()


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "fig1": _fig1,
    "theorems": _theorems,
    "lower-bounds": _lower_bounds,
    "rate-sweep": _rate_sweep,
    "tradeoff": _tradeoff,
    "ablation": _ablation,
    "prediction": _prediction,
    "wan": _wan,
    "scalability": _scalability,
}

DESCRIPTIONS = {
    "fig1": "Figure 1(a)+(b): protocol comparison tables",
    "theorems": "Theorems 4.1 / 5.1 / 5.2 constructive runs",
    "lower-bounds": "Propositions 3.1-3.3 counterexample search",
    "rate-sweep": "Section 5.3 broadcast-rate sweep (100 ms WAN)",
    "tradeoff": "Introduction's genuine-vs-broadcast tradeoff",
    "ablation": "Stage-skipping ablation vs Fritzke et al. [5]",
    "prediction": "Quiescence prediction strategies (§5.3 extension)",
    "wan": "Heterogeneous three-continent WAN, A1 vs ring [4]",
    "scalability": "Group-count/group-size sweeps of Figure 1 asymptotics",
}


def _print_listing() -> None:
    from repro.adversary.spec import ADVERSARIES
    from repro.campaigns.library import CAMPAIGN_DESCRIPTIONS

    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name:14s} {DESCRIPTIONS[name]}")
    print()
    print("campaigns (python -m repro.cli campaign <name>):")
    for name, description in CAMPAIGN_DESCRIPTIONS.items():
        print(f"  {name:14s} {description}")
    print()
    print("adversaries (ScenarioSpec adversary=<name>, "
          "python -m repro.cli torture):")
    for name, spec in ADVERSARIES.items():
        print(f"  {name:16s} {spec.describe()}")
    print()
    print("loss sweeps: python -m repro.cli lossy "
          "[--rates CSV] [--include-none]")


def _parse_seeds(parser: argparse.ArgumentParser,
                 text: Optional[str]) -> Optional[List[int]]:
    """Parse ``--seeds``; malformed values are usage errors (exit 2)."""
    if text is None:
        return None
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--seeds must be comma-separated ints: {text!r}")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    # Results are keyed by (scenario, seed): a repeated seed would pay
    # for a run whose result collapses onto the first one.
    return list(dict.fromkeys(seeds))


def _parse_int_csv(parser: argparse.ArgumentParser, flag: str,
                   text: str, required: bool = True) -> List[int]:
    """Parse a comma-separated int flag; malformed values exit 2."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{flag} must be comma-separated ints: {text!r}")
    if required and not values:
        parser.error(f"{flag} must name at least one value")
    return values


def campaign_main(argv: List[str]) -> int:
    """The ``campaign`` verb: run built-in scenario matrices."""
    from repro.campaigns.library import CAMPAIGNS, get_campaign
    from repro.campaigns.runner import CampaignRunner, verify_determinism

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli campaign",
        description="Run a declarative scenario matrix over worker "
                    "processes and persist CAMPAIGN_<name>.json.",
    )
    parser.add_argument("names", nargs="*",
                        help="campaign names (default: all built-ins)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--seeds", type=str, default=None, metavar="CSV",
                        help="comma-separated seed override, e.g. 1,2,3")
    parser.add_argument("--out", type=str, default=".", metavar="DIR",
                        help="directory for CAMPAIGN_*.json artefacts")
    parser.add_argument("--max-scenarios", type=int, default=None,
                        metavar="K",
                        help="truncate each matrix to its first K "
                             "scenarios (smoke runs)")
    parser.add_argument("--compare-serial", action="store_true",
                        help="re-run with --jobs 1, assert per-seed "
                             "metrics identical, record the speedup")
    parser.add_argument("--list", action="store_true",
                        help="list built-in campaigns and exit")
    args = parser.parse_args(argv)

    if args.list:
        _print_listing()
        return 0

    chosen = args.names or list(CAMPAIGNS)
    unknown = [name for name in chosen if name not in CAMPAIGNS]
    if unknown:
        print(f"unknown campaign(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(CAMPAIGNS)}", file=sys.stderr)
        return 2

    seeds = _parse_seeds(parser, args.seeds)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_scenarios is not None and args.max_scenarios < 1:
        parser.error(
            f"--max-scenarios must be >= 1, got {args.max_scenarios}"
        )
    status = 0
    for name in chosen:
        campaign = get_campaign(name, seeds=seeds)
        if args.max_scenarios is not None:
            campaign.scenarios = campaign.scenarios[:args.max_scenarios]
        runner = CampaignRunner(campaign, jobs=args.jobs)
        result = runner.run()
        extra = None
        if args.compare_serial:
            import os

            serial = CampaignRunner(runner.campaign, jobs=1).run()
            verify_determinism(result, serial)
            baseline = {
                "wall_seconds": round(serial.wall_seconds, 4),
                "speedup": round(serial.wall_seconds
                                 / max(result.wall_seconds, 1e-9), 2),
                "per_seed_metrics_identical": True,
            }
            if (os.cpu_count() or 1) < 2 <= args.jobs:
                baseline["note"] = (
                    "single-CPU host: workers time-share one core, so "
                    "no wall-clock speedup is physically available here"
                )
            extra = {"serial_baseline": baseline}
        path = result.write(args.out, extra=extra)
        print(result.markdown_summary())
        if extra:
            print(f"\nserial wall {extra['serial_baseline']['wall_seconds']}s"
                  f" vs jobs={args.jobs} wall {result.wall_seconds:.2f}s "
                  f"-> speedup {extra['serial_baseline']['speedup']}x "
                  f"(per-seed metrics identical)")
        print(f"\nwrote {path}")
        if not result.all_checkers_ok:
            for scenario, seed, checker, verdict in result.failures():
                print(f"CHECKER FAILED: {scenario} seed={seed} "
                      f"{checker}: {verdict}", file=sys.stderr)
            status = 1
        print()
    return status


def store_main(argv: List[str]) -> int:
    """The ``store`` verb: one transactional-store scenario, checked."""
    import json

    from repro.campaigns.runner import run_scenario_seed
    from repro.campaigns.spec import ScenarioSpec, StoreSpec
    from repro.runtime.builder import PROTOCOLS

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli store",
        description="Run the transactional partitioned store under one "
                    "scenario: route one-shot transactions via genuine "
                    "multicast (or broadcast-everything), check "
                    "one-copy serializability, and report commit "
                    "latency plus per-group involvement.",
    )
    parser.add_argument("--protocol", default="a1",
                        help="protocol registry key (default: a1)")
    parser.add_argument("--groups", default="2,2,2,2", metavar="CSV",
                        help="group sizes, e.g. 2,2,2,2 (default)")
    parser.add_argument("--data-groups", default=None, metavar="CSV",
                        help="groups owning partitions (default: all)")
    parser.add_argument("--routing", default="genuine",
                        choices=("genuine", "broadcast"),
                        help="genuine multicast to owner groups, or "
                             "broadcast-everything")
    parser.add_argument("--keys", type=int, default=48,
                        help="keyspace size (default: 48)")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="Poisson transaction arrival rate")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="workload duration in virtual time")
    parser.add_argument("--read-fraction", type=float, default=0.5)
    parser.add_argument("--multi-partition", type=float, default=0.25,
                        metavar="FRACTION",
                        help="fraction of multi-partition transactions")
    parser.add_argument("--ops", type=int, default=2, metavar="N",
                        help="operations per transaction (default: 2)")
    parser.add_argument("--zipf", type=float, default=1.0,
                        help="key-popularity zipf skew (default: 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the run record as JSON")
    args = parser.parse_args(argv)

    if args.protocol not in PROTOCOLS:
        print(f"unknown protocol {args.protocol!r}; "
              f"available: {', '.join(sorted(PROTOCOLS))}", file=sys.stderr)
        return 2
    group_sizes = tuple(_parse_int_csv(parser, "--groups", args.groups))
    data_groups = None
    if args.data_groups is not None:
        data_groups = tuple(_parse_int_csv(parser, "--data-groups",
                                           args.data_groups))

    checkers = ["properties", "serializability", "convergence"]
    if args.routing == "genuine" and args.protocol != "nongenuine":
        checkers.append("genuineness")
    try:
        spec = ScenarioSpec(
            name="store-cli",
            protocol=args.protocol,
            group_sizes=group_sizes,
            store=StoreSpec(
                n_keys=args.keys, data_groups=data_groups,
                routing=args.routing, rate=args.rate,
                duration=args.duration, read_fraction=args.read_fraction,
                multi_partition_fraction=args.multi_partition,
                ops_per_txn=args.ops, zipf_skew=args.zipf,
            ),
            seeds=(args.seed,),
            checkers=tuple(checkers),
            metrics=("core", "latency", "traffic", "store", "involvement"),
        )
        result = run_scenario_seed(spec, args.seed)
    except ValueError as exc:
        print(f"invalid store scenario: {exc}", file=sys.stderr)
        return 2

    metrics = result.metrics
    print(f"store: {args.protocol} ({args.routing} routing), "
          f"groups {list(group_sizes)}, seed {args.seed}")
    print(f"  transactions: {metrics['txn_committed']:.0f} committed "
          f"of {metrics['txn_planned']:.0f} planned "
          f"({metrics['txn_multi_partition_fraction']:.0%} "
          f"multi-partition)")
    if "txn_latency_mean" in metrics:
        print(f"  commit latency (sim time): "
              f"mean {metrics['txn_latency_mean']:.2f}, "
              f"p50 {metrics['txn_latency_p50']:.2f}, "
              f"p90 {metrics['txn_latency_p90']:.2f}, "
              f"p99 {metrics['txn_latency_p99']:.2f}, "
              f"max {metrics['txn_latency_max']:.2f}")
    print("  involvement (sent/recv copies vs transactions addressed):")
    for gid in range(len(group_sizes)):
        sent = metrics.get(f"group{gid}_sent", 0.0)
        recv = metrics.get(f"group{gid}_recv", 0.0)
        dest = metrics.get(f"group{gid}_dest_txns", 0.0)
        tag = "" if dest else "   <- non-destination"
        print(f"    group {gid}: {sent:6.0f} sent {recv:6.0f} recv "
              f"{dest:5.0f} txns{tag}")
    print(f"  non-destination traffic: "
          f"{metrics['nondest_messages']:.0f} copies")
    for name, verdict in result.checkers.items():
        print(f"  checker {name}: {verdict}")

    if args.json:
        record = {
            "spec": spec.to_dict(),
            "seed": args.seed,
            "metrics": metrics,
            "checkers": result.checkers,
            "wall_seconds": round(result.wall_seconds, 4),
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def lossy_main(argv: List[str]) -> int:
    """The ``lossy`` verb: loss rate × transport grid for one protocol."""
    import json

    from repro.adversary.spec import AdversarySpec, InjectorSpec
    from repro.campaigns.metrics import extract
    from repro.campaigns.runner import build_scenario_system, run_checkers
    from repro.campaigns.spec import (
        DestinationSpec, ScenarioSpec, WorkloadSpec,
    )
    from repro.runtime.builder import PROTOCOLS
    from repro.sim.kernel import SimulationError

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli lossy",
        description="Sweep channel loss against the reliable transport: "
                    "for each loss rate, drop/duplicate/corrupt a "
                    "protocol's traffic and check that every property "
                    "plus self-stabilization survives.  --include-none "
                    "adds raw-link rows that show what the transport is "
                    "saving you from (expected to fail; they never "
                    "affect the exit status).",
    )
    parser.add_argument("--protocol", default="a1",
                        help="protocol registry key (default: a1)")
    parser.add_argument("--groups", default="2,2", metavar="CSV",
                        help="group sizes, e.g. 2,2 (default)")
    parser.add_argument("--rates", default="0.05,0.15,0.3", metavar="CSV",
                        help="drop probabilities to sweep "
                             "(default: 0.05,0.15,0.3)")
    parser.add_argument("--dup", type=float, default=0.1,
                        help="duplicate probability per rate (default 0.1)")
    parser.add_argument("--corrupt", type=float, default=0.05,
                        help="corrupt probability per rate (default 0.05)")
    parser.add_argument("--until", type=float, default=25.0,
                        help="virtual-time fault horizon (default 25)")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="Poisson cast arrival rate (default 1.0)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="workload duration in virtual time")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-events", type=int, default=2_000_000,
                        help="kernel event budget per cell (raw-link "
                             "rows livelock under loss; this bounds them)")
    parser.add_argument("--include-none", action="store_true",
                        help="also run each rate over transport='none'")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the grid as JSON")
    args = parser.parse_args(argv)

    if args.protocol not in PROTOCOLS:
        print(f"unknown protocol {args.protocol!r}; "
              f"available: {', '.join(sorted(PROTOCOLS))}", file=sys.stderr)
        return 2
    group_sizes = tuple(_parse_int_csv(parser, "--groups", args.groups))
    try:
        rates = [float(part) for part in args.rates.split(",")
                 if part.strip()]
    except ValueError:
        parser.error(f"--rates must be comma-separated floats: "
                     f"{args.rates!r}")
    if not rates:
        parser.error("--rates must name at least one rate")

    transports = ("reliable", "none") if args.include_none else ("reliable",)
    rows = []
    status = 0
    for drop_p in rates:
        injectors = [InjectorSpec(kind="drop",
                                  params=(("probability", drop_p),
                                          ("until", args.until)))]
        if args.dup > 0:
            injectors.append(InjectorSpec(
                kind="duplicate",
                params=(("probability", args.dup), ("until", args.until))))
        if args.corrupt > 0:
            injectors.append(InjectorSpec(
                kind="corrupt",
                params=(("probability", args.corrupt),
                        ("until", args.until))))
        adversary = AdversarySpec(name=f"lossy-cli-{drop_p:g}",
                                  injectors=tuple(injectors))
        for transport in transports:
            spec = ScenarioSpec(
                name=f"lossy-cli-{drop_p:g}-{transport}",
                protocol=args.protocol,
                group_sizes=group_sizes,
                workload=WorkloadSpec(
                    kind="poisson", rate=args.rate, duration=args.duration,
                    destinations=DestinationSpec(kind="uniform-k",
                                                 k=min(2, len(group_sizes))),
                ),
                seeds=(args.seed,),
                transport=transport,
                start_rounds=(args.protocol == "a2"),
                checkers=("properties", "stabilization"),
                metrics=("core", "traffic", "transport"),
                max_events=args.max_events,
            )
            try:
                system, plans, applied = build_scenario_system(
                    spec, args.seed, adversary=adversary)
                system.run_quiescent(max_events=spec.max_events)
            except SimulationError as exc:
                rows.append({"drop": drop_p, "transport": transport,
                             "verdict": f"FAIL: {exc}", "metrics": {}})
                if transport == "reliable":
                    status = 1
                continue
            metrics = extract(system, list(spec.metrics))
            if applied is not None:
                metrics["faults_injected"] = float(applied.total_faults)
            verdicts = run_checkers(system, spec)
            bad = {k: v for k, v in verdicts.items() if v != "ok"}
            verdict = "ok" if not bad else "; ".join(
                f"{k}: {v}" for k, v in bad.items())
            rows.append({"drop": drop_p, "transport": transport,
                         "verdict": verdict, "metrics": metrics})
            if bad and transport == "reliable":
                status = 1

    print(f"lossy: {args.protocol}, groups {list(group_sizes)}, "
          f"seed {args.seed}, dup {args.dup:g}, corrupt {args.corrupt:g}, "
          f"faults stop at t={args.until:g}")
    header = (f"  {'drop':>6s} {'transport':>9s} {'faults':>6s} "
              f"{'rtx':>5s} {'fast':>5s} {'dupsup':>6s} {'corrupt':>7s} "
              f"{'ovh':>5s}  verdict")
    print(header)
    for row in rows:
        m = row["metrics"]
        if m:
            cells = (f"  {row['drop']:>6g} {row['transport']:>9s} "
                     f"{m.get('faults_injected', 0):>6.0f} "
                     f"{m['tsp_retransmits']:>5.0f} "
                     f"{m['tsp_fast_retransmits']:>5.0f} "
                     f"{m['tsp_dup_suppressed']:>6.0f} "
                     f"{m['tsp_corrupt_detected']:>7.0f} "
                     f"{m['tsp_overhead_copies']:>5.2f}  {row['verdict']}")
        else:
            cells = (f"  {row['drop']:>6g} {row['transport']:>9s} "
                     f"{'—':>6s} {'—':>5s} {'—':>5s} {'—':>6s} {'—':>7s} "
                     f"{'—':>5s}  {row['verdict'][:60]}")
        print(cells)
    if args.include_none:
        print("  (transport=none rows are expected to fail: they "
              "demonstrate the raw links; exit status ignores them)")

    if args.json:
        record = {
            "protocol": args.protocol,
            "group_sizes": list(group_sizes),
            "seed": args.seed,
            "dup": args.dup,
            "corrupt": args.corrupt,
            "until": args.until,
            "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return status


def _artifact_name(scenario: str, seed: int) -> str:
    safe = scenario.replace("/", "_").replace("=", "-").replace(" ", "_")
    return f"COUNTEREXAMPLE_{safe}_s{seed}.json"


def torture_main(argv: List[str]) -> int:
    """The ``torture`` verb: adversarial exploration with shrinking."""
    import json
    import os
    import time

    from repro.adversary.artifact import write_artifact
    from repro.adversary.explorer import run_case
    from repro.adversary.shrink import shrink
    from repro.adversary.spec import get_adversary
    from repro.campaigns.library import CAMPAIGNS, get_campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli torture",
        description="Drive a campaign's scenario x adversary grid "
                    "through the schedule explorer; shrink any checker "
                    "violation to a minimal replayable counterexample.",
    )
    parser.add_argument("--campaign", default="torture", metavar="NAME",
                        help="campaign to torture (default: torture)")
    parser.add_argument("--seeds", type=str, default=None, metavar="CSV",
                        help="comma-separated seed override, e.g. 1,2,3")
    parser.add_argument("--out", type=str, default=".", metavar="DIR",
                        help="directory for TORTURE_/COUNTEREXAMPLE_ "
                             "artifacts")
    parser.add_argument("--max-scenarios", type=int, default=None,
                        metavar="K",
                        help="truncate the grid to its first K scenarios")
    parser.add_argument("--shrink-budget", type=int, default=120,
                        metavar="N",
                        help="max candidate runs per shrink (default 120)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="emit raw (unshrunk) counterexamples")
    parser.add_argument("--selftest", action="store_true",
                        help="hunt the intentionally broken protocol "
                             "fixture instead of a campaign: asserts "
                             "the explorer catches it, the shrinker "
                             "minimises it, and the artifact replays")
    args = parser.parse_args(argv)

    if args.shrink_budget < 1:
        parser.error(f"--shrink-budget must be >= 1, "
                     f"got {args.shrink_budget}")
    if args.max_scenarios is not None and args.max_scenarios < 1:
        parser.error(f"--max-scenarios must be >= 1, "
                     f"got {args.max_scenarios}")
    seeds = _parse_seeds(parser, args.seeds)
    os.makedirs(args.out, exist_ok=True)

    if args.selftest:
        # The selftest runs one fixed scenario; flags that only make
        # sense for a campaign grid would be silently ignored — reject
        # them instead.
        for flag, off in (("--campaign", args.campaign == "torture"),
                          ("--max-scenarios",
                           args.max_scenarios is None),
                          ("--no-shrink", not args.no_shrink)):
            if not off:
                parser.error(f"{flag} cannot be combined with "
                             f"--selftest")
        return _torture_selftest(args, seeds)

    if args.campaign not in CAMPAIGNS:
        print(f"unknown campaign: {args.campaign}", file=sys.stderr)
        print(f"available: {', '.join(CAMPAIGNS)}", file=sys.stderr)
        return 2
    campaign = get_campaign(args.campaign, seeds=seeds)
    scenarios = campaign.scenarios
    if args.max_scenarios is not None:
        scenarios = scenarios[:args.max_scenarios]

    t0 = time.perf_counter()
    records = {}
    counterexamples = []
    for spec in scenarios:
        adversary = get_adversary(spec.adversary)
        for seed in spec.seeds:
            case = run_case(spec, adversary, seed)
            record = {
                "verdicts": case.verdicts,
                "casts": case.casts,
                "deliveries": case.deliveries,
                "faults_injected": case.total_faults,
            }
            print(case.describe())
            if not case.ok:
                # The record mirrors the *unshrunk* run (its verdicts,
                # counts and violation belong together); the shrunk
                # case lives in the artifact, summarised under
                # "shrunk" — shrinking may legitimately pin a
                # different symptom of the same schedule-sensitivity.
                record["violation"] = case.violation.to_dict()
                minimal = case
                shrink_summary = None
                if not args.no_shrink:
                    outcome = shrink(case, budget=args.shrink_budget)
                    minimal = outcome.minimal
                    shrink_summary = outcome.summary()
                    print(f"  shrunk: {minimal.describe()} "
                          f"({outcome.runs_used} candidate runs)")
                    record["shrunk"] = {
                        "total_faults": minimal.total_faults,
                        "casts": minimal.casts,
                        "violating_checker": minimal.violation.checker,
                    }
                path = os.path.join(
                    args.out, _artifact_name(spec.name, seed))
                write_artifact(minimal, path,
                               shrink_summary=shrink_summary)
                counterexamples.append(path)
                record["counterexample"] = path
                print(f"  wrote {path}", file=sys.stderr)
            records.setdefault(spec.name, {})[str(seed)] = record

    summary = {
        "schema": "repro.adversary.torture/v1",
        "campaign": args.campaign,
        "scenario_count": len(scenarios),
        "case_count": sum(len(spec.seeds) for spec in scenarios),
        "adversaries": sorted({spec.adversary for spec in scenarios}),
        "all_checkers_ok": not counterexamples,
        "counterexamples": counterexamples,
        "wall_seconds": round(time.perf_counter() - t0, 4),
        "scenarios": records,
    }
    safe = args.campaign.replace("/", "_")
    summary_path = os.path.join(args.out, f"TORTURE_{safe}.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\n{summary['case_count']} cases, "
          f"{len(counterexamples)} counterexample(s); "
          f"wrote {summary_path}")
    return 1 if counterexamples else 0


def _torture_selftest(args, seeds: Optional[List[int]]) -> int:
    """Prove the pipeline catches the broken fixture end to end."""
    import os

    from repro.adversary.artifact import replay_file, write_artifact
    from repro.adversary.explorer import run_case
    from repro.adversary.shrink import shrink
    from repro.adversary.spec import get_adversary
    from repro.adversary.selftest import (
        PROTOCOL_NAME,
        register_selftest_protocol,
    )
    from repro.campaigns.spec import ScenarioSpec, WorkloadSpec

    register_selftest_protocol()
    seed = (seeds or [1])[0]
    scenario = ScenarioSpec(
        name="selftest",
        protocol=PROTOCOL_NAME,
        group_sizes=(2, 2),
        workload=WorkloadSpec(kind="poisson", rate=2.0, duration=15.0),
        checkers=("properties",),
    )
    benign = run_case(scenario, get_adversary("none"), seed)
    if not benign.ok:
        print(f"selftest FAILED: fixture should pass benignly, got "
              f"{benign.violation.message}", file=sys.stderr)
        return 1
    print(f"benign: {benign.describe()}")
    case = run_case(scenario, get_adversary("delay-reorder"), seed)
    if case.ok:
        print("selftest FAILED: the delay-reorder adversary did not "
              "catch the broken fixture", file=sys.stderr)
        return 1
    print(f"caught: {case.describe()}")
    outcome = shrink(case, budget=args.shrink_budget)
    minimal = outcome.minimal
    print(f"shrunk: {minimal.describe()} "
          f"({outcome.runs_used} candidate runs)")
    if minimal.total_faults > 5:
        print(f"selftest FAILED: shrunk reproducer still has "
              f"{minimal.total_faults} faults (> 5)", file=sys.stderr)
        return 1
    path = os.path.join(args.out, _artifact_name("selftest", seed))
    write_artifact(minimal, path, shrink_summary=outcome.summary())
    result = replay_file(path)
    if not result.reproduced:
        print(f"selftest FAILED: artifact did not replay: "
              f"{result.describe()}", file=sys.stderr)
        return 1
    print(f"replayed: {result.describe()}")
    print(f"wrote {path}")
    print("selftest OK: caught, shrunk to "
          f"{minimal.total_faults} fault(s), replayed bit-identically")
    return 0


def rebalance_main(argv: List[str]) -> int:
    """The ``rebalance`` verb: elastic repartitioning vs the static map."""
    import json
    import os

    from repro.campaigns.library import get_campaign
    from repro.campaigns.runner import CampaignRunner

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli rebalance",
        description="Run the rebalance campaign (elastic repartitioning "
                    "vs the frozen epoch-0 partition map under "
                    "zipf-skewed load), persist CAMPAIGN_rebalance.json, "
                    "and print the static-vs-rebalance committed-"
                    "throughput comparison.  --explore additionally "
                    "drives the adversary cells through the schedule "
                    "explorer, shrinking any checker violation to a "
                    "replayable COUNTEREXAMPLE_*.json.",
    )
    parser.add_argument("--seeds", type=str, default=None, metavar="CSV",
                        help="comma-separated seed override, e.g. 1,2,3")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--out", type=str, default=".", metavar="DIR",
                        help="directory for campaign artefacts")
    parser.add_argument("--max-scenarios", type=int, default=None,
                        metavar="K",
                        help="truncate the grid to its first K scenarios "
                             "(smoke runs)")
    parser.add_argument("--explore", action="store_true",
                        help="drive the adversary cells through the "
                             "schedule explorer and shrink any violation")
    parser.add_argument("--shrink-budget", type=int, default=120,
                        metavar="N",
                        help="max candidate runs per shrink (default 120)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the comparison table as JSON")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_scenarios is not None and args.max_scenarios < 1:
        parser.error(f"--max-scenarios must be >= 1, "
                     f"got {args.max_scenarios}")
    if args.shrink_budget < 1:
        parser.error(f"--shrink-budget must be >= 1, "
                     f"got {args.shrink_budget}")
    seeds = _parse_seeds(parser, args.seeds)

    campaign = get_campaign("rebalance", seeds=seeds)
    if args.max_scenarios is not None:
        campaign.scenarios = campaign.scenarios[:args.max_scenarios]
    runner = CampaignRunner(campaign, jobs=args.jobs)
    result = runner.run()
    path = result.write(args.out)
    print(result.markdown_summary())
    print(f"\nwrote {path}\n")

    # Static-vs-rebalance comparison, one row per benign topology pair.
    arms: Dict[int, Dict[str, object]] = {}
    for spec in campaign.scenarios:
        if spec.adversary not in (None, "none") or spec.store is None:
            continue
        arm = "rebalance" if spec.store.rebalance_interval > 0 else "static"
        arms.setdefault(len(spec.group_sizes), {})[arm] = spec
    rows = []
    print("committed throughput: static epoch-0 map vs online rebalance")
    print(f"  {'groups':>6s} {'static':>8s} {'rebal':>8s} {'gain':>7s} "
          f"{'migs':>5s} {'moved':>6s} {'bounces':>8s}")
    for n_groups in sorted(arms):
        pair = arms[n_groups]
        if len(pair) != 2:
            continue  # truncated smoke run
        aggs = {arm: result.aggregates(spec.name)
                for arm, spec in pair.items()}
        static = aggs["static"]["txns_per_vtime"].mean
        rebal = aggs["rebalance"]["txns_per_vtime"].mean
        gain = 100.0 * (rebal - static) / static if static else 0.0
        migs = aggs["rebalance"]["reconfigs_completed"].mean
        moved = aggs["rebalance"]["reconfig_keys_moved"].mean
        bounces = aggs["rebalance"]["wrong_epoch_bounces"].mean
        print(f"  {n_groups:>6d} {static:>8.3f} {rebal:>8.3f} "
              f"{gain:>+6.1f}% {migs:>5.1f} {moved:>6.1f} {bounces:>8.1f}")
        rows.append({
            "n_groups": n_groups, "static_tps": round(static, 4),
            "rebalance_tps": round(rebal, 4), "gain_pct": round(gain, 2),
            "migrations": migs, "keys_moved": moved, "bounces": bounces,
        })
    status = 0 if result.all_checkers_ok else 1
    for scenario, seed, checker, verdict in result.failures():
        print(f"CHECKER FAILED: {scenario} seed={seed} "
              f"{checker}: {verdict}", file=sys.stderr)

    counterexamples = []
    if args.explore:
        from repro.adversary.artifact import write_artifact
        from repro.adversary.explorer import run_case
        from repro.adversary.shrink import shrink
        from repro.adversary.spec import get_adversary

        os.makedirs(args.out, exist_ok=True)
        for spec in campaign.scenarios:
            if spec.adversary in (None, "none"):
                continue
            adversary = get_adversary(spec.adversary)
            for seed in spec.seeds:
                case = run_case(spec, adversary, seed)
                print(case.describe())
                if case.ok:
                    continue
                outcome = shrink(case, budget=args.shrink_budget)
                minimal = outcome.minimal
                print(f"  shrunk: {minimal.describe()} "
                      f"({outcome.runs_used} candidate runs)")
                artifact = os.path.join(
                    args.out, _artifact_name(spec.name, seed))
                write_artifact(minimal, artifact,
                               shrink_summary=outcome.summary())
                counterexamples.append(artifact)
                print(f"  wrote {artifact}", file=sys.stderr)
                status = 1

    if args.json:
        record = {
            "campaign": path,
            "comparison": rows,
            "all_checkers_ok": result.all_checkers_ok,
            "counterexamples": counterexamples,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return status


def replay_main(argv: List[str]) -> int:
    """The ``replay`` verb: re-run counterexample artifacts."""
    from repro.adversary.artifact import replay_file

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli replay",
        description="Re-run adversary artifacts and assert the checker "
                    "verdicts and delivery orders reproduce exactly.",
    )
    parser.add_argument("artifacts", nargs="+", metavar="FILE",
                        help="COUNTEREXAMPLE_*.json artifact path(s)")
    args = parser.parse_args(argv)

    status = 0
    for path in args.artifacts:
        try:
            result = replay_file(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # KeyError/TypeError: structurally malformed spec dicts
            # inside an otherwise schema-valid artifact.
            print(f"{path}: {exc!r}", file=sys.stderr)
            status = 2
            continue
        print(f"{path}: {result.describe()}")
        if not result.reproduced:
            status = 1
    return status


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "torture":
        return torture_main(argv[1:])
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    if argv and argv[0] == "lossy":
        return lossy_main(argv[1:])
    if argv and argv[0] == "rebalance":
        return rebalance_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's tables, figures and runs. "
                    "Use the 'campaign' verb to run scenario matrices.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and campaigns")
    args = parser.parse_args(argv)

    if args.list:
        _print_listing()
        return 0

    chosen = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    for i, name in enumerate(chosen):
        if i:
            print("\n" + "=" * 72 + "\n")
        print(EXPERIMENTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
