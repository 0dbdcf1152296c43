"""Campaign metric extractors for store scenarios.

Two metric families, registered in
:data:`repro.campaigns.metrics.EXTRACTORS` under ``"store"`` and
``"involvement"``:

* ``store`` — serving-layer throughput and commit latency in simulated
  time: committed/planned transaction counts, commit-latency
  percentiles, committed transactions per virtual time unit, and the
  realised multi-partition mix;
* ``involvement`` — the genuineness claim as numbers: per-group
  sent/received message copies and per-group destination counts, plus
  the ``nondest_messages`` headline (copies touched by groups outside
  every destination set — zero for genuine protocols, positive for the
  broadcast reduction).

Both read ``system.store_cluster`` and therefore only apply to
scenarios with a :class:`~repro.store.spec.StoreSpec`;
``validate_spec`` rejects the combination up front otherwise.
"""

from __future__ import annotations

from typing import Dict

from repro.runtime.report import percentile


def _cluster(system):
    cluster = getattr(system, "store_cluster", None)
    if cluster is None:
        raise ValueError(
            "store metrics require a store scenario "
            "(ScenarioSpec.store / StoreCluster.attach)"
        )
    return cluster


def store_metrics(system) -> Dict[str, float]:
    """Serving-layer counters: commits, latency, simulated throughput."""
    cluster = _cluster(system)
    tracker = cluster.tracker
    latencies = tracker.latencies()
    committed = tracker.committed_originals()
    out: Dict[str, float] = {
        "txn_planned": float(len(cluster.plans)),
        "txn_committed": float(len(committed)),
        "txn_uncommitted": float(len(tracker.uncommitted())),
    }
    # Reconfig/handoff control casts are protocol traffic, not client
    # transactions; keep them out of the realised mix.  A transaction is
    # cast under its own id, so the data casts are the cast ids the
    # cluster holds a transaction for.
    records = cluster.system.log.record_map
    sizes = [len(records[txn_id].msg.dest_groups)
             for txn_id in records.keys() & cluster.txns.keys()]
    multi = sum(map((1).__lt__, sizes))  # casts to more than one group
    out["txn_multi_partition_fraction"] = (
        multi / len(sizes) if sizes else 0.0
    )
    if latencies:
        out.update({
            "txn_latency_mean": sum(latencies) / len(latencies),
            "txn_latency_p50": percentile(latencies, 0.50),
            "txn_latency_p90": percentile(latencies, 0.90),
            "txn_latency_p99": percentile(latencies, 0.99),
            "txn_latency_max": max(latencies),
        })
        span = tracker.commit_span()
        first_issue, last_commit = span
        if last_commit > first_issue:
            out["txns_per_vtime"] = (
                len(committed) / (last_commit - first_issue)
            )
    return out


def involvement_metrics(system) -> Dict[str, float]:
    """Per-group participation vs addressing (needs the trace)."""
    cluster = _cluster(system)
    report = cluster.involvement()
    out: Dict[str, float] = {
        "groups_total": float(len(report.group_ids)),
        "groups_involved": float(len(report.involved_groups())),
        "groups_nondest": float(len(report.non_destination_groups())),
        "nondest_messages": float(report.non_destination_traffic()),
    }
    for gid in report.group_ids:
        out[f"group{gid}_sent"] = float(report.sent.get(gid, 0))
        out[f"group{gid}_recv"] = float(report.received.get(gid, 0))
        out[f"group{gid}_dest_txns"] = float(report.dest_txns.get(gid, 0))
    return out
