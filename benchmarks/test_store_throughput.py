"""Benchmark: serving-layer throughput, genuine vs broadcast routing.

The paper's central scalability claim, measured end to end through the
transactional store: a one-shot transaction should involve only the
groups that own the keys it touches.  At 8 groups with a mostly-2-
partition mix, genuine A1 moves a small constant number of groups per
transaction while the two broadcast alternatives (the non-genuine
wrapper and broadcast-everything A2) drag all 8 groups into every
transaction — so the same committed workload costs them several times
the message traffic and, therefore, several times the wall clock.

Pinned here:

* **Semantics** — all three deployments commit the *identical*
  transaction set (same seeded plan), pass the one-copy-serializability
  and convergence checkers, and the paper's uniform properties;
* **Structure** (machine-independent) — the broadcast deployments move
  ≥ 2x A1's network copies at 8 groups;
* **Throughput** (wall-clock, skipped on shared CI runners like the
  engine benchmarks) — genuine A1 sustains ≥ ``MIN_STORE_SPEEDUP``x
  the committed-transactions-per-second of broadcast-everything A2
  (~3-4x measured on an idle machine).

The measured numbers land in ``BENCH_store.json`` under pytest's
temporary directory — running the suite never rewrites the tracked
copy at the repository root.  The
engine benchmarks (``test_throughput.py``) are untouched and keep
asserting against their own committed baselines.
"""

import dataclasses
import json
import os
import time

import pytest

from repro.checkers.properties import check_all
from repro.store import StoreCluster, StoreSpec, check_serializability

#: Loose wall-clock floor for genuine-vs-broadcast throughput at 8
#: groups; the real measurement (~3-4x) lands in BENCH_store.json.
MIN_STORE_SPEEDUP = 1.5

#: Broadcast must move at least this many times A1's copies at 8 groups
#: (deterministic count, asserted everywhere — measured ~7x).
MIN_TRAFFIC_RATIO = 2.0

# Same rule as benchmarks/test_throughput.py: wall-clock assertions are
# only meaningful on an unloaded machine class; CI keeps the semantic
# and structural assertions.
WALL_CLOCK_COMPARABLE = (
    os.environ.get("REPRO_BENCH_STRICT") == "1"
    or not os.environ.get("CI")
)
needs_comparable_wall_clock = pytest.mark.skipif(
    not WALL_CLOCK_COMPARABLE,
    reason="wall-clock ratios not comparable on shared CI runners "
           "(set REPRO_BENCH_STRICT=1 to force)",
)

GROUPS = [2] * 8
SPEC = StoreSpec(
    n_keys=64, data_groups=tuple(range(8)), routing="genuine",
    rate=4.0, duration=90.0, read_fraction=0.5,
    multi_partition_fraction=0.4, ops_per_txn=2, zipf_skew=1.0,
)
SEED = 42

DEPLOYMENTS = {
    "a1_genuine": ("a1", "genuine"),
    "nongenuine": ("nongenuine", "genuine"),
    "a2_broadcast": ("a2", "broadcast"),
}


def _run(protocol: str, routing: str):
    spec = dataclasses.replace(SPEC, routing=routing)
    t0 = time.perf_counter()
    cluster = StoreCluster.build(GROUPS, store=spec, protocol=protocol,
                                 seed=SEED)
    cluster.system.run_quiescent()
    wall = time.perf_counter() - t0
    return cluster, wall


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    """Where this run's report goes: never the tracked repo-root copy."""
    return str(tmp_path_factory.mktemp("bench") / "BENCH_store.json")


@pytest.fixture(scope="module")
def results(report_file):
    """Run every deployment (best of 2 walls) and write the report."""
    measured = {}
    for name, (protocol, routing) in DEPLOYMENTS.items():
        best_cluster, best_wall = None, None
        for _ in range(2):
            cluster, wall = _run(protocol, routing)
            if best_wall is None or wall < best_wall:
                best_cluster, best_wall = cluster, wall
        measured[name] = (best_cluster, best_wall)

    report = {
        "metric": (
            "txns_per_sec = committed one-shot transactions per "
            "wall-clock second; every deployment replays the identical "
            "seeded plan, so the ratio equals the wall-time ratio"
        ),
        "topology": {"groups": len(GROUPS), "processes": sum(GROUPS)},
        "workload": {
            "planned_txns": len(measured["a1_genuine"][0].plans),
            "read_fraction": SPEC.read_fraction,
            "multi_partition_fraction": SPEC.multi_partition_fraction,
            "seed": SEED,
        },
        "deployments": {},
    }
    for name, (cluster, wall) in measured.items():
        committed = len(cluster.tracker.committed)
        report["deployments"][name] = {
            "protocol": DEPLOYMENTS[name][0],
            "routing": DEPLOYMENTS[name][1],
            "committed": committed,
            "wall_seconds": round(wall, 4),
            "txns_per_sec": round(committed / wall, 1),
            "network_messages":
                cluster.system.network.stats.total_messages,
            "kernel_events": cluster.system.sim.events_executed,
        }
    a1 = report["deployments"]["a1_genuine"]
    bc = report["deployments"]["a2_broadcast"]
    report["headline"] = {
        "comparison": "a1_genuine vs a2_broadcast at 8 groups",
        "speedup_txns_per_sec": round(
            a1["txns_per_sec"] / bc["txns_per_sec"], 2),
        "traffic_ratio": round(
            bc["network_messages"] / a1["network_messages"], 2),
    }
    with open(report_file, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return measured


class TestSemantics:
    def test_identical_committed_transactions(self, results):
        committed = {
            name: tuple(sorted(cluster.tracker.committed))
            for name, (cluster, _) in results.items()
        }
        assert len(set(committed.values())) == 1
        reference = next(iter(results.values()))[0]
        assert len(reference.tracker.committed) == len(reference.plans)

    def test_every_deployment_serialisable_and_convergent(self, results):
        # NB: the three deployments may order *concurrent* conflicting
        # writes differently (each order is serialisable on its own),
        # so final states are not compared across deployments — each
        # run is held to its own one-copy replay instead.
        for name, (cluster, _) in results.items():
            check_serializability(cluster)
            cluster.assert_convergence()
            check_all(cluster.system.log, cluster.system.topology,
                      cluster.system.crashes)


class TestStructure:
    def test_broadcast_moves_multiples_of_genuine_traffic(self, results):
        a1 = results["a1_genuine"][0].system.network.stats.total_messages
        for name in ("nongenuine", "a2_broadcast"):
            other = results[name][0].system.network.stats.total_messages
            ratio = other / a1
            assert ratio >= MIN_TRAFFIC_RATIO, (
                f"{name}: traffic ratio {ratio:.2f}x under "
                f"{MIN_TRAFFIC_RATIO}x"
            )

    def test_report_file_written(self, results, report_file):
        with open(report_file) as fh:
            report = json.load(fh)
        assert set(report["deployments"]) == set(DEPLOYMENTS)
        assert report["headline"]["traffic_ratio"] >= MIN_TRAFFIC_RATIO


class TestThroughput:
    @needs_comparable_wall_clock
    def test_genuine_sustains_higher_txns_per_sec(self, results):
        def txns_per_sec(name):
            cluster, wall = results[name]
            return len(cluster.tracker.committed) / wall

        speedup = txns_per_sec("a1_genuine") / txns_per_sec("a2_broadcast")
        assert speedup >= MIN_STORE_SPEEDUP, (
            f"genuine A1 at {speedup:.2f}x broadcast, "
            f"floor {MIN_STORE_SPEEDUP}x"
        )
