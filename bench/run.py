"""The benchmark instrument: one command, seven workloads, every metric.

Two ways in, one engine underneath:

``python bench/run.py``
    The full protocol: ``--repeats`` interleaved untraced passes over
    all workloads (more, up to 9, while a workload's two fastest passes
    disagree by > 3 %), then the offered-rate sweep, then one traced
    pass per workload.  Prints every metric by name with its unit,
    gates on correctness, writes ``bench/out/result.json``.

``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
    The driver contract of ``BENCHMARK.json``: one workload, as many
    passes as fit in S seconds (never fewer than 3; with ``--trace 1``
    two untraced passes, the sweep and the traced pass), and one JSON
    object on the last line holding exactly the declared end-to-end
    (``--trace 0``) or per-layer (``--trace 1``) metrics.

Every pass is a fresh ``measure.py`` subprocess (clean heap, honest
peak RSS, no cross-run interpreter state).  Sim-time metrics, counts
and the delivery fingerprint must be identical across all passes of a
(workload, seed) — the runner fails otherwise.

Host-time metrics (``setup_s``, ``ops_per_s``, ``check_s``) are in
**calibrated seconds**: each pass's wall time divided by that pass's
host-speed factor — the mean reading of the fixed calibration loop
interleaved with the work, over :data:`CALIB_REF_S` — and the median
taken across passes.  Factor 1.0 is the sizing host when quiet, where a
calibrated second is a wall second; the raw wall numbers and the factor
are published beside them (``host.*``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONTRACT_FILE = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

from measure import ratio  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_MIN_GOODPUT,
    SWEEP_P99_LIMIT,
    SWEEP_WORKLOAD,
    WORKLOADS,
)

#: End-to-end metrics BENCHMARK.json has to list under ``per_layer``,
#: because the driver contract bounds every end-to-end metric on every
#: workload across seeds: the first two swing 15-40 % from seed to seed
#: on store_rebalance, the rest read 0 on some workload.
ALSO_END_TO_END = ("lat_p99_sim", "msgs_per_op", "degree_mean",
                   "inter_msgs_per_op", "failed_op_ratio", "outage_sim",
                   "max_rate_ok")

#: Mean calibration-loop reading of a pass on the sizing host when no
#: neighbour is disturbing it; defines host-speed factor 1.0.
CALIB_REF_S = 0.0037

QUICK_SCALE = 20.0
MIN_PASSES, MAX_PASSES = 3, 9
AGREE_WITHIN = 0.03
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The instrument itself is broken (not a slow or noisy result)."""


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, scale: float,
             trace_dir: Optional[str] = None, sweep: bool = False) -> dict:
    """One ``measure.py`` subprocess; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if trace_dir is not None:
        cmd += ["--trace", trace_dir]
    if sweep:
        cmd.append("--sweep")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_seconds(result: dict) -> float:
    return sum(result["host"]["slices_s"])


def speed_factor(result: dict, phase: str = "run") -> float:
    """How much slower than the reference the host ran this phase.

    Each phase (``setup``, ``run``, ``check``) is judged by the
    calibration readings interleaved with it.
    """
    return statistics.mean(result["host"]["calib_s"][phase]) / CALIB_REF_S


def sweep_max_rate(seed: int, scale: float) -> float:
    """Highest offered rate of the ladder that SWEEP_WORKLOAD serves.

    One deterministic run per rate; a rate is served when its
    ``lat_p99_sim`` stays within the limit and its goodput keeps up
    with the offer (no growing backlog).  Sim time only — no repeats.
    """
    best = 0.0
    ladder = run_pass(SWEEP_WORKLOAD, seed, scale, sweep=True)
    for rate, exact in sorted((float(r), e) for r, e in ladder.items()):
        if (exact["lat_p99_sim"] <= SWEEP_P99_LIMIT
                and exact["ops_per_simtime"] >= SWEEP_MIN_GOODPUT * rate
                and exact["failed_op_ratio"] == 0.0):
            best = rate
    return best


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def check_deterministic(workload: str, results: List[dict]) -> None:
    """Exact metrics and fingerprints must match across all passes."""
    first = results[0]
    for other in results[1:]:
        if other["fingerprint"] != first["fingerprint"]:
            raise BenchError(
                f"{workload}: delivery fingerprint differs between passes "
                f"of seed {first['seed']} — the run is not deterministic")
        diff = sorted(k for k in first["exact"]
                      if first["exact"][k] != other["exact"].get(k))
        if diff:
            raise BenchError(
                f"{workload}: exact metrics differ between passes of "
                f"seed {first['seed']}: {diff}")


def summarise(passes: List[dict], traced: Optional[dict],
              max_rate_ok: float) -> Dict[str, float]:
    """All metrics of one workload, by their BENCHMARK.json names."""
    workload = passes[0]["workload"]
    check_deterministic(workload, passes + ([traced] if traced else []))
    exact = passes[0]["exact"]

    def calibrated(phase: str, seconds_of) -> float:
        return statistics.median(
            seconds_of(p["host"]) / speed_factor(p, phase) for p in passes)

    checkers = {name: calibrated("check", lambda h: h["checkers_s"][name])
                for name in passes[0]["host"]["checkers_s"]}
    extract_s = calibrated("check", lambda h: h["extract_s"])
    check_s = calibrated(
        "check", lambda h: h["extract_s"] + sum(h["checkers_s"].values()))
    run_s = calibrated("run", lambda h: sum(h["slices_s"]))
    runs = [run_seconds(p) for p in passes]
    done = exact["ops_completed"]

    out = dict(exact)
    out.update({
        "setup_s": calibrated("setup", lambda h: h["setup_s"]),
        "ops_per_s": ratio(done, run_s),
        "check_s": check_s,
        "peak_rss_mb": statistics.median(
            p["host"]["peak_rss_mb"] for p in passes),
        "max_rate_ok": max_rate_ok,
        "net.msg_events_per_s": ratio(exact["net.msgs"], run_s),
        "checkers.us_per_delivery":
            ratio(check_s * 1e6, exact["core.deliveries"]),
        "runtime.extract_s": extract_s,
        "host.run_s_median": statistics.median(runs),
        "host.run_s_iqr": _iqr(runs),
        "host.repeats": float(len(passes)),
        "host.speed_factor": statistics.median(
            speed_factor(p) for p in passes),
    })
    for name in ("properties", "serializability", "convergence",
                 "reconfig", "stabilization"):
        out[f"checkers.{name}_s"] = checkers.get(name, 0.0)
    if traced is not None:
        trace = traced["trace"]
        factor = speed_factor(traced)
        setup_factor = speed_factor(traced, "setup")
        self_s = {layer: seconds / factor
                  for layer, seconds in trace["self_s"].items()}
        counts = trace["counts"]
        out.update(counts)
        out.update({f"{layer}.self_s": seconds
                    for layer, seconds in self_s.items()})
        instances = counts["consensus.instances"]
        out.update({
            "sim.ns_per_event":
                ratio(self_s["sim"] * 1e9, exact["sim.events"]),
            "net.fanout": ratio(exact["net.msgs"],
                                 counts["net.send_calls"]),
            "consensus.instances_per_op": ratio(instances, done),
            "consensus.msgs_per_instance":
                ratio(exact["consensus.msgs"], instances),
            "runtime.build_s": trace["build_s"] / setup_factor,
            "workload.plan_s": trace["plan_s"] / setup_factor,
            "trace.overhead_ratio": ratio(trace["run_s"] / factor, run_s),
            "trace.unattributed_ratio":
                ratio(trace["unattributed_s"], trace["run_s"]),
        })
    return out


def gate(workload: str, metrics: Dict[str, float],
         results: List[dict]) -> List[str]:
    """Why this workload's outputs are not acceptable (empty = fine)."""
    spec = WORKLOADS[workload]
    problems = [f"checker {name}: {verdict}"
                for result in results
                for name, verdict in result["verdicts"].items()
                if verdict != "ok"]
    if metrics["failed_op_ratio"] > 0.0:
        problems.append(
            f"{metrics['ops_planned'] - metrics['ops_completed']:.0f} of "
            f"{metrics['ops_planned']:.0f} planned operations did not "
            f"complete (recorded: 0)")
    for name in spec.must_exercise:
        if name in metrics and not metrics[name] > 0:
            problems.append(f"{name} is 0: the workload no longer "
                            f"exercises the layer it exists for")
    for name, value in metrics.items():
        if name.startswith(spec.idle) and value != 0:
            problems.append(f"{name} = {value!r} on a workload where "
                            f"that layer is supposed to be idle")
    if metrics.get("trace.unattributed_ratio", 0.0) > 0.05:
        problems.append("more than 5 % of the traced run is not "
                        "attributed to a named layer")
    return problems


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def two_fastest_agree(passes: List[dict]) -> bool:
    fastest, second = sorted(
        run_seconds(p) / speed_factor(p) for p in passes)[:2]
    return second <= fastest * (1.0 + AGREE_WITHIN)


def timed_passes(workload: str, seed: int, scale: float, seconds: float,
                 reserve: float, floor: int) -> List[dict]:
    """As many passes as fit in ``seconds`` (at least ``floor``).

    ``reserve`` is how many pass-lengths of other work (traced pass,
    sweep) must still fit inside the same budget afterwards.
    """
    started = time.perf_counter()
    passes: List[dict] = []
    while len(passes) < MAX_PASSES:
        elapsed = time.perf_counter() - started
        if len(passes) >= floor and (
                elapsed + (elapsed / len(passes)) * (1.0 + reserve)
                > seconds):
            break
        passes.append(run_pass(workload, seed, scale))
    return passes


def interleaved_passes(workloads: List[str], seed: int, scale: float,
                       repeats: int, extend: bool) -> Dict[str, List[dict]]:
    """Round-robin passes, extended while a workload is still noisy."""
    passes: Dict[str, List[dict]] = {w: [] for w in workloads}
    for round_no in range(MAX_PASSES if extend else repeats):
        todo = [w for w in workloads
                if round_no < repeats or not two_fastest_agree(passes[w])]
        if not todo:
            break
        for workload in todo:
            passes[workload].append(run_pass(workload, seed, scale))
            print(f"  pass {round_no + 1}: {workload:<16}"
                  f"{run_seconds(passes[workload][-1]):8.3f} s",
                  file=sys.stderr)
    return passes


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def load_contract() -> dict:
    with open(CONTRACT_FILE) as fh:
        return json.load(fh)


def with_units(metrics: Dict[str, float], declared: List[dict]) -> dict:
    """The declared metrics, each as ``{"value", "unit"}``."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def print_block(workload: str, metrics: Dict[str, float], contract: dict,
                problems: List[str], fingerprint: str) -> None:
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    end_to_end = ([m["name"] for m in contract["end_to_end"]]
                  + list(ALSO_END_TO_END))
    print(f"\n== {workload}: n = {metrics['ops_completed']:.0f} of "
          f"{metrics['ops_planned']:.0f} ops, "
          f"{metrics['host.repeats']:.0f} passes, "
          f"fingerprint {fingerprint[:16]} ==")
    print("  end to end")
    for name in end_to_end:
        if name in metrics:
            print(f"    {name:<32}{metrics[name]:>16.6g} {units[name]}")
    print("  per layer")
    for name in (m["name"] for m in contract["per_layer"]):
        if name in metrics and name not in ALSO_END_TO_END:
            print(f"    {name:<32}{metrics[name]:>16.6g} {units[name]}")
    for problem in problems:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", default=None,
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved untraced passes (at least 3, "
                             "unless --quick)")
    parser.add_argument("--quick", action="store_true",
                        help=f"plans ÷{QUICK_SCALE:g} and no extra passes "
                             f"(smoke runs)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass (and the sweep)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result.json and span files")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver contract: time-box one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    args = parser.parse_args(argv)

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; have {names}")
    scale = QUICK_SCALE if args.quick else 1.0
    driver = args.seconds is not None
    if driver and (len(workloads) != 1 or args.trace is None):
        parser.error("--seconds needs exactly one --workload and --trace")
    want_trace = bool(args.trace) if driver else not args.no_trace

    try:
        if driver:
            passes = {workloads[0]: timed_passes(
                workloads[0], args.seed, scale, args.seconds,
                reserve=4.0 if want_trace else 0.0,
                floor=2 if want_trace else MIN_PASSES)}
        else:
            # Smoke runs trade steadiness for speed.
            repeats = max(args.repeats, 1 if args.quick else MIN_PASSES)
            passes = interleaved_passes(workloads, args.seed, scale,
                                        repeats, extend=not args.quick)
        report = {}
        failed = False
        for workload in workloads:
            traced, max_rate = None, 0.0
            if want_trace:
                if workload == SWEEP_WORKLOAD:
                    max_rate = sweep_max_rate(args.seed, scale)
                traced = run_pass(workload, args.seed, scale,
                                  trace_dir=args.out)
            metrics = summarise(passes[workload], traced, max_rate)
            results = passes[workload] + ([traced] if traced else [])
            problems = gate(workload, metrics, results)
            failed = failed or bool(problems)
            report[workload] = {
                "metrics": metrics, "problems": problems,
                "fingerprint": results[0]["fingerprint"],
                "verdicts": results[0]["verdicts"],
                "trace": traced["trace"] if traced else None,
                "run_s": [run_seconds(p) for p in passes[workload]],
            }
        if driver:
            metrics = report[workloads[0]]["metrics"]
            payload = {
                "correct": not failed,
                "attempted": int(metrics["ops_planned"]),
                "failed": int(metrics["ops_planned"]
                              - metrics["ops_completed"]),
                "metrics": with_units(metrics, contract[
                    "per_layer" if want_trace else "end_to_end"]),
            }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if driver:
        for problem in report[workloads[0]]["problems"]:
            print(f"FAIL {workloads[0]}: {problem}", file=sys.stderr)
        print(json.dumps(payload))
        return 1 if failed else 0

    for workload in workloads:
        entry = report[workload]
        print_block(workload, entry["metrics"], contract,
                    entry["problems"], entry["fingerprint"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance(), "seed": args.seed,
                   "scale": scale, "traced": want_trace,
                   "workloads": report}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\n{'FAILED' if failed else 'ok'}: {len(workloads)} workloads, "
          f"seed {args.seed}; wrote {os.path.relpath(path)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
