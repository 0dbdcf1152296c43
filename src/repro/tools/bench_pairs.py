"""Alternating parent/change benchmark pairs, as a CHANGES.md table.

``python -m repro.tools.bench_pairs PARENT_DIR CHANGE_DIR --workload W
[--workload ...] [--pairs 10] [--seed 42] [--json]``

The rule for claiming a host-time gain (``bench/README.md`` "Rules") is
at least ten pairs of runs, parent and change, alternating which side
goes first, compared by medians against the parent's own quartile
spread.  This runs exactly that: per pair and per side, the checkout's
*own* benchmark command (``command`` and ``run_seconds`` from its
``BENCHMARK.json``) as ``<command> --workload W --seed N --seconds S
--trace 0`` with the checkout as working directory, one process at a
time.  Only the last stdout line — the driver contract's JSON object —
is read, so the tool depends on nothing under ``bench/``.

Both sides measure with bytecode caches: the children run without
``PYTHONDONTWRITEBYTECODE``, after one discarded warm-up run per side
(``"warmup_runs"`` in the ``--json`` output).

Metrics whose unit is sim time or a count are exact per seed: they are
reported as ``identical`` or ``old → new``.  Host-time metrics get
median [Q1–Q3] per side, the ratio of the medians and "change better
k/n" over the pairs (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

SIDES = ("parent", "change")


def _declaration(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One driver invocation in ``checkout``; its last stdout line."""
    declared = _declaration(checkout)
    argv = list(declared["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", "0"]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} printed nothing (exit "
            f"{done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _is_exact(unit: str) -> bool:
    return "simtime" in unit or unit == "count"


def _quartiles(values: Sequence[float]):
    """(Q1, median, Q3); a single run is its own spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent_dir: str, change_dir: str, workload: str,
            pairs: int, seed: int) -> dict:
    """Run ``pairs`` alternating pairs of ``workload``; raw and summary."""
    dirs = dict(zip(SIDES, (parent_dir, change_dir)))
    for side in SIDES:  # warm-up: writes the bytecode caches, discarded
        run_once(dirs[side], workload, seed)
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(dirs[side], workload, seed))
    metrics = {}
    for entry in _declaration(change_dir)["end_to_end"]:
        name = entry["name"]
        old, new = ([run["metrics"][name]["value"] for run in runs[side]]
                    for side in SIDES)
        if _is_exact(entry["unit"]):
            metrics[name] = {
                "exact": True, "parent": old[0], "change": new[0],
                "identical": len(set(old + new)) == 1}
            continue
        higher = entry["better"] == "higher"
        old_q, new_q = _quartiles(old), _quartiles(new)
        metrics[name] = {
            "exact": False, "parent": old, "change": new,
            "parent_quartiles": old_q, "change_quartiles": new_q,
            "ratio": new_q[1] / old_q[1] if old_q[1] else float("nan"),
            "change_better": sum((n > o) if higher else (n < o)
                                 for o, n in zip(old, new))}
    return {
        "workload": workload, "seed": seed, "pairs": pairs,
        "warmup_runs": 1, "metrics": metrics,
        "not_ok": {side: sum(1 for run in runs[side]
                             if not run["correct"] or run["failed"])
                   for side in SIDES}}


def _spread(quartiles) -> str:
    q1, median, q3 = quartiles
    return f"{median:.4g} [{q1:.4g}–{q3:.4g}]"


def render_rows(results: List[dict]) -> str:
    """The markdown table, one row per workload."""
    names = list(results[0]["metrics"])
    lines = ["| workload (pairs) | " + " | ".join(f"`{n}`" for n in names)
             + " | runs not ok |",
             "|---" * (len(names) + 2) + "|"]
    for result in results:
        cells = []
        for name in names:
            m = result["metrics"][name]
            if m["exact"]:
                cells.append("identical" if m["identical"] else
                             f"{m['parent']:.6g} → {m['change']:.6g}")
            else:
                cells.append(
                    f"{_spread(m['parent_quartiles'])} → "
                    f"{_spread(m['change_quartiles'])} "
                    f"({m['ratio']:.3f}x, change better "
                    f"{m['change_better']}/{result['pairs']})")
        bad = result["not_ok"]
        lines.append(
            f"| `{result['workload']}` seed {result['seed']} "
            f"({result['pairs']}) | " + " | ".join(cells)
            + f" | {bad['parent']} / {bad['change']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", action="store_true",
                        help="print every run's values as one JSON "
                             "document instead of the table")
    args = parser.parse_args(argv)
    results = []
    for workload in args.workload:
        results.append(compare(args.parent_dir, args.change_dir, workload,
                               args.pairs, args.seed))
        if not args.json:  # progress: pairs take minutes per workload
            print(render_rows(results[-1:]).splitlines()[-1],
                  file=sys.stderr, flush=True)
    print(json.dumps(results) if args.json else render_rows(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
