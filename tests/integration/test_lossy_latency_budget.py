"""Sim-time budget: what 10 % loss may cost above the transport.

The ``a1_lossy`` benchmark workload (drop 0.10 / duplicate 0.05 /
corrupt 0.02 under ``transport="reliable"``) is run at ``--seed 42
--scale 4`` beside the very same ``ScenarioSpec`` with no adversary —
both through ``bench/measure.py``'s ``measure`` (so through
``build_scenario_system``), each in a fresh interpreter as the benchmark
runs it.  Commit latency is sim time,
exact per seed, so the ratio can gate: a transport that parks frames
behind a lost one reads 3.5x here (10.46 / 2.99), release on arrival
with selective repeat 1.3x (3.86 / 2.99).

The budget was re-derived when A1's delivery guard started releasing s3
against lower bounds on pending finals (``core/amcast.py``, third engine
note): the loss-free floor dropped 2.99 → 2.28 while the lossy run
dropped only 3.86 → 3.72, so the same transport read 1.63x.  The gap
was the guard's, not the transport's: a lost (TS, m) copy stalled its
sender's gap-free count until the retransmission landed.  Since the
guard counts one stream per remote *group* (all members number their
copies identically, so any member's copy fills a rank), a rank is
missing only while every member's copy of it is: 3.72 → 3.47, **1.52x**.
Hence two gates: the multiple (1.65x, head-of-line blocking would still
read > 3x) and an absolute ceiling — loss may never cost more commit
latency than it did with one stream per sender (3.72).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: lat_p50_sim under loss may be at most this multiple of the loss-free
#: run of the same plan (measured 3.47 / 2.28 = 1.52) ...
BUDGET = 1.65
#: ... and no higher than it was with one (TS, m) stream per sender.
CEILING = 3.72

_ONE_RUN = """
import json, sys
sys.path.insert(0, "bench")
from measure import measure
from workloads import WORKLOADS
spec, _ = WORKLOADS["a1_lossy"].build(4.0)
result = measure("a1_lossy", 42, 4.0,
                 spec=spec if sys.argv[1] == "loss-free" else None)
print(json.dumps([result["exact"]["lat_p50_sim"], result["verdicts"]]))
"""


def _lat_p50_sim(which: str) -> float:
    proc = subprocess.run([sys.executable, "-c", _ONE_RUN, which],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    latency, verdicts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(v == "ok" for v in verdicts.values()), (which, verdicts)
    return latency


def test_loss_costs_at_most_the_budget_in_commit_latency():
    floor = _lat_p50_sim("loss-free")
    lossy = _lat_p50_sim("lossy")
    assert floor > 0
    assert lossy <= BUDGET * floor, (
        f"a1_lossy lat_p50_sim {lossy:.3f} is {lossy / floor:.2f}x the "
        f"loss-free {floor:.3f} (budget {BUDGET}x)")
    assert lossy <= CEILING, (
        f"a1_lossy lat_p50_sim {lossy:.3f} is above the {CEILING} it "
        f"cost before the s3 guard merged each group's streams")
