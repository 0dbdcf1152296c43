#!/usr/bin/env python3
"""The transactional partitioned store over genuine atomic multicast.

An inventory service sharded over four sites — plus two spare sites
that hold no data for this workload.  One-shot transactions declare
their operations up front (put/get/incr/cas, one key each), are routed
to exactly the sites owning the touched keys, and execute
deterministically at every replica on A-Deliver:

* a counter increment touching one partition involves one site;
* a stock transfer touching two partitions is atomically multicast to
  exactly those two sites;
* the spare sites never see a single protocol message (genuineness) —
  run the same script with ``protocol="nongenuine"`` and watch them get
  dragged into everything;
* afterwards, the one-copy-serializability checker proves the whole
  distributed execution is equivalent to a single serial store.

Run:  python examples/store_demo.py
"""

from repro.runtime.builder import SystemSpec
from repro.store import StoreCluster, StoreSpec, check_serializability


def main() -> None:
    spec = StoreSpec(
        n_keys=16,                 # k00000..k00015, round-robin owners
        data_groups=(0, 1, 2, 3),  # sites 4 and 5 hold nothing
        rate=0.6, duration=30.0,   # background Poisson traffic
        read_fraction=0.5,
        multi_partition_fraction=0.4,
    )
    cluster = StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2, 2, 2, 2, 2, 2)),
        store=spec, seed=11, trace=True,
    )
    pmap = cluster.partition_map

    # Hand-written transactions on top of the generated workload: a
    # cross-partition stock transfer (single atomic multicast to the
    # two owner sites) and a conditional price update.
    stock_a = "k00000"   # owned by site 0
    stock_b = "k00001"   # owned by site 1
    client = cluster.client(0)
    done = []
    cluster.system.sim.call_at(5.0, lambda: client.submit(
        "restock", (("put", stock_a, 100), ("put", stock_b, 100))))
    cluster.system.sim.call_at(10.0, lambda: cluster.client(2).submit(
        "transfer", (("incr", stock_a, -10), ("incr", stock_b, 10))))
    cluster.system.sim.call_at(15.0, lambda: client.submit(
        "audit", (("get", stock_a), ("get", stock_b))))

    cluster.system.run_quiescent()

    print("Transactional partitioned store — 4 data sites + 2 spares\n")
    print(f"  planned transactions : {len(cluster.plans) + 3}")
    print(f"  committed            : {len(cluster.tracker.committed)}")
    latencies = cluster.tracker.latencies()
    print(f"  commit latency (sim) : mean "
          f"{sum(latencies) / len(latencies):.2f}, "
          f"max {max(latencies):.2f}\n")

    print("The transfer applied atomically on both owner sites:")
    for key in (stock_a, stock_b):
        gid = pmap.group_of(key)
        values = {pid: cluster.store(pid).get(key)
                  for pid in cluster.system.topology.members(gid)}
        print(f"  {key} (site {gid}): {values}")

    # Each owner site served the audit's read of its own key, at the
    # audit's position in the global order.
    audit_reads = {}
    for index, key in enumerate((stock_a, stock_b)):
        owner = cluster.system.topology.members(pmap.group_of(key))[0]
        audit_reads[key] = cluster.store(owner).effects_of("audit") \
            .reads[index]
    print(f"\nThe audit's cross-partition reads: {audit_reads}")

    print("\nPer-site involvement (sent copies / txns addressed):")
    report = cluster.involvement()
    for gid in cluster.system.topology.group_ids:
        spare = " <- spare site, perfectly idle" \
            if gid in report.non_destination_groups() else ""
        print(f"  site {gid}: {report.sent.get(gid, 0):5d} sent / "
              f"{report.dest_txns.get(gid, 0):3d} txns{spare}")
    assert report.non_destination_traffic() == 0

    order = check_serializability(cluster)
    cluster.assert_convergence()
    print(f"\nOne-copy serializability verified: all "
          f"{len(order)} transactions embed into a single serial "
          f"order. ✓")


if __name__ == "__main__":
    main()
