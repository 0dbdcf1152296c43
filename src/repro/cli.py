"""Command-line entry point: the paper's claims, campaigns and tools.

Usage::

    python -m repro.cli                 # every paper claim vs its bound
    python -m repro.cli paper thm fig1  # the rows whose ids start so
    python -m repro.cli --list          # list everything runnable

    python -m repro.cli campaign cross-protocol --jobs 4
    python -m repro.cli campaign wan-storm --seeds 1,2,3 --out results/
    python -m repro.cli campaign crash-storm --jobs 8 --compare-serial
    python -m repro.cli campaign rebalance --seeds 1,2,3 --out results/
    python -m repro.cli campaign rate-sweep fd-overhead --jobs 2

    python -m repro.cli torture --campaign torture --seeds 3
    python -m repro.cli torture --campaign rebalance --max-scenarios 2
    python -m repro.cli torture --selftest --out torture-out
    python -m repro.cli replay COUNTEREXAMPLE_torture_s3.json

    python -m repro.cli store --protocol a1 --groups 2,2,2,2 --rate 1
    python -m repro.cli store --protocol a2 --routing broadcast

``paper`` prints :data:`repro.paper.CLAIMS`, one row per claim of the
paper: its measured value next to its bound.  Every verb is one
:data:`VERBS` entry; ``<verb> --help`` describes it.  Exit status: 0
green, 1 a checker failed or a claim missed its bound, 2 a usage error.

Host wall time, attributed layer by layer, is measured by ``python
bench/measure.py <workload> --trace DIR`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, Iterable, List, Optional, Tuple


# ----------------------------------------------------------------------
# Shared helpers: argument types, listings, exit codes
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """argparse ``type=``: an int >= 1; anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an int >= 1, got {text!r}")
    return value


def _int_csv(text: str) -> List[int]:
    """argparse ``type=``: comma-separated ints, at least one."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated ints: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("must name at least one value")
    return values


def _seeds(text: str) -> List[int]:
    """argparse ``type=`` for ``--seeds``, repeats dropped."""
    # Results are keyed by (scenario, seed): a repeated seed would pay
    # for a run whose result collapses onto the first one.
    return list(dict.fromkeys(_int_csv(text)))


def _unknown(kind: str, names: Iterable[str],
             available: Iterable[str]) -> bool:
    """Report the names not in ``available``; the caller exits 2."""
    available = list(available)
    unknown = [name for name in names if name not in available]
    if unknown:
        print(f"unknown {kind}(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available)}", file=sys.stderr)
    return bool(unknown)


def _write_json(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _parser(verb: str, detail: str) -> argparse.ArgumentParser:
    """A verb's parser; its help opens with the verb's listing line."""
    return argparse.ArgumentParser(
        prog=f"python -m repro.cli {verb}",
        description=f"{VERBS[verb][1]}.  {detail}",
    )


def _add_grid_flags(parser: argparse.ArgumentParser, out_help: str) -> None:
    """``--seeds`` / ``--out`` / ``--max-scenarios``, for campaign grids."""
    parser.add_argument("--seeds", type=_seeds, default=None, metavar="CSV",
                        help="comma-separated seed override, e.g. 1,2,3")
    parser.add_argument("--out", type=str, default=".", metavar="DIR",
                        help=out_help)
    parser.add_argument("--max-scenarios", type=_positive_int, default=None,
                        metavar="K",
                        help="truncate each grid to its first K scenarios "
                             "(smoke runs)")


def _load_campaign(name: str, args: argparse.Namespace):
    """Build campaign ``name`` under the grid flags."""
    from repro.campaigns.library import get_campaign

    campaign = get_campaign(name, seeds=args.seeds)
    if args.max_scenarios is not None:
        campaign.scenarios = campaign.scenarios[:args.max_scenarios]
    return campaign


def _print_listing() -> None:
    from repro.adversary.spec import ADVERSARIES
    from repro.campaigns.library import CAMPAIGNS, get_campaign
    from repro.paper import CLAIMS

    print("claims (python -m repro.cli paper [ID_PREFIX ...]):")
    for claim in CLAIMS:
        print(f"  {claim.id:30s} {claim.source}")
    print()
    print("verbs (python -m repro.cli <verb> --help):")
    for name, (_, summary) in VERBS.items():
        print(f"  {name:14s} {summary}")
    print()
    print("campaigns (python -m repro.cli campaign <name>):")
    for name in CAMPAIGNS:
        campaign = get_campaign(name)
        print(f"  {name:14s} {campaign.description} "
              f"({len(campaign.scenarios)} scenarios)")
    print()
    print("adversaries (ScenarioSpec adversary=<name>, "
          "python -m repro.cli torture):")
    for name, spec in ADVERSARIES.items():
        print(f"  {name:16s} {spec.describe()}")


def _artifact_name(scenario: str, seed: int) -> str:
    safe = scenario.replace("/", "_").replace("=", "-").replace(" ", "_")
    return f"COUNTEREXAMPLE_{safe}_s{seed}.json"


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------
def paper_main(argv: List[str]) -> int:
    """The ``paper`` verb: every claim's measured value vs its bound."""
    from repro import paper
    from repro.runtime.results import Row, format_table

    parser = _parser(
        "paper",
        "Each row is one claim of the paper, measured on fixed runs; "
        "exits 1 if any row misses its bound.",
    )
    parser.add_argument("prefixes", nargs="*", metavar="ID_PREFIX",
                        help="run only the rows whose id starts with one "
                             "of these (default: every row)")
    args = parser.parse_args(argv)

    claims = paper.CLAIMS
    unmatched = [prefix for prefix in args.prefixes
                 if not any(c.id.startswith(prefix) for c in claims)]
    families = dict.fromkeys(c.id.split("-")[0] for c in claims)
    if _unknown("claim id prefix", unmatched, families):
        return 2
    chosen = [c for c in claims
              if not args.prefixes
              or any(c.id.startswith(prefix) for prefix in args.prefixes)]
    rows, misses = [], []
    for claim in chosen:
        value = claim.measure()
        ok = claim.holds(value)
        if not ok:
            misses.append(claim)
        op, limit = claim.bound
        rows.append(Row(label=claim.id, values=[
            claim.source, f"{value:.4g}", f"{op} {limit:g}",
            "ok" if ok else "MISS"]))
    print(format_table(
        "The paper's claims, each measured against its bound",
        ["id", "source", "measured", "bound", "ok"], rows))
    for claim in misses:
        print(f"CLAIM MISSED: {claim.id}: {claim.statement}",
              file=sys.stderr)
    return 1 if misses else 0


def campaign_main(argv: List[str]) -> int:
    """The ``campaign`` verb: run built-in scenario matrices."""
    from repro.campaigns.library import CAMPAIGNS
    from repro.campaigns.runner import CampaignRunner, verify_determinism

    parser = _parser(
        "campaign",
        "Runs over --jobs worker processes, writes CAMPAIGN_<name>.json "
        "plus a markdown summary into --out, and exits 1 if any checker "
        "failed.  A campaign with a comparison (rebalance: static vs "
        "online throughput) prints it and stores its rows under "
        "\"comparison\".",
    )
    parser.add_argument("names", nargs="*",
                        help="campaign names (default: all built-ins)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="worker processes (default: 1, serial)")
    _add_grid_flags(parser, "directory for CAMPAIGN_*.json artefacts")
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
    if _unknown("campaign", chosen, CAMPAIGNS):
        return 2

    status = 0
    for name in chosen:
        campaign = _load_campaign(name, args)
        result = CampaignRunner(campaign, jobs=args.jobs).run()
        extra = {}
        comparison = None
        if campaign.compare is not None:
            comparison, extra["comparison"] = campaign.compare(result)
        if args.compare_serial:
            serial = CampaignRunner(campaign, jobs=1).run()
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
            extra["serial_baseline"] = baseline
        path = result.write(args.out, extra=extra)
        print(result.markdown_summary())
        if comparison is not None:
            print(f"\n{comparison}")
        if args.compare_serial:
            print(f"\nserial wall {baseline['wall_seconds']}s"
                  f" vs jobs={args.jobs} wall {result.wall_seconds:.2f}s "
                  f"-> speedup {baseline['speedup']}x "
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
    from repro.campaigns.runner import run_scenario_seed
    from repro.campaigns.spec import ScenarioSpec, StoreSpec

    parser = _parser(
        "store",
        "Routes one-shot transactions via genuine multicast (or "
        "broadcast-everything), checks one-copy serializability, and "
        "reports commit latency plus per-group involvement.",
    )
    parser.add_argument("--protocol", default="a1",
                        help="protocol registry key (default: a1)")
    parser.add_argument("--groups", type=_int_csv, default="2,2,2,2",
                        metavar="CSV",
                        help="group sizes, e.g. 2,2,2,2 (default)")
    parser.add_argument("--data-groups", type=_int_csv, default=None,
                        metavar="CSV",
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

    group_sizes = tuple(args.groups)
    data_groups = (tuple(args.data_groups)
                   if args.data_groups is not None else None)
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
        _write_json(args.json, {
            "spec": spec.to_dict(),
            "seed": args.seed,
            "metrics": metrics,
            "checkers": result.checkers,
            "wall_seconds": round(result.wall_seconds, 4),
        })
        print(f"wrote {args.json}")
    return 0 if result.ok else 1


def torture_main(argv: List[str]) -> int:
    """The ``torture`` verb: adversarial exploration with shrinking."""
    import time

    from repro.adversary.artifact import write_artifact
    from repro.adversary.explorer import run_case
    from repro.adversary.shrink import shrink
    from repro.adversary.spec import get_adversary
    from repro.campaigns.library import CAMPAIGNS

    parser = _parser(
        "torture",
        "Shrinking drops faults, topology and horizon until a minimal "
        "replayable COUNTEREXAMPLE_*.json remains; --selftest hunts the "
        "intentionally broken FIFO-sequencer fixture.",
    )
    parser.add_argument("--campaign", default="torture", metavar="NAME",
                        help="campaign to torture (default: torture)")
    _add_grid_flags(parser, "directory for TORTURE_/COUNTEREXAMPLE_ "
                            "artifacts")
    parser.add_argument("--shrink-budget", type=_positive_int, default=120,
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
        return _torture_selftest(args)

    if _unknown("campaign", [args.campaign], CAMPAIGNS):
        return 2
    scenarios = _load_campaign(args.campaign, args).scenarios

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
    _write_json(summary_path, summary)
    print(f"\n{summary['case_count']} cases, "
          f"{len(counterexamples)} counterexample(s); "
          f"wrote {summary_path}")
    return 1 if counterexamples else 0


def _torture_selftest(args: argparse.Namespace) -> int:
    """Prove the pipeline catches the broken fixture end to end."""
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
    seed = (args.seeds or [1])[0]
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


def replay_main(argv: List[str]) -> int:
    """The ``replay`` verb: re-run counterexample artifacts."""
    from repro.adversary.artifact import replay_file

    parser = _parser(
        "replay",
        "The checker verdicts and delivery orders must reproduce "
        "exactly.",
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


#: name -> (handler, the one-line description ``--list`` prints and
#: each verb's ``--help`` opens with).
VERBS: Dict[str, Tuple[Callable[[List[str]], int], str]] = {
    "paper": (paper_main,
              "Measure every claim of the paper and print it next to its "
              "bound"),
    "campaign": (campaign_main,
                 "Run built-in scenario matrices over worker processes "
                 "and persist CAMPAIGN_<name>.json"),
    "torture": (torture_main,
                "Drive a campaign's scenario x adversary grid through the "
                "schedule explorer, shrinking any violation"),
    "replay": (replay_main,
               "Re-run COUNTEREXAMPLE_*.json artifacts bit for bit"),
    "store": (store_main,
              "Run the transactional partitioned store under one checked "
              "scenario"),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in VERBS:
        return VERBS[argv[0]][0](argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="The paper's claims, scenario matrices, adversaries "
                    "and the store.  Without a verb, runs `paper`; use "
                    "--list for everything runnable.",
    )
    parser.add_argument("verb", nargs="*", help=argparse.SUPPRESS)
    parser.add_argument("--list", action="store_true",
                        help="list claims, verbs, campaigns and "
                             "adversaries")
    args = parser.parse_args(argv)

    if args.list:
        _print_listing()
        return 0
    if _unknown("verb", args.verb[:1], VERBS):
        return 2
    return paper_main([])


if __name__ == "__main__":
    sys.exit(main())
