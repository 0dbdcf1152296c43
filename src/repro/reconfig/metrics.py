"""Campaign metrics for the elastic-repartitioning machinery.

Registered in :data:`repro.campaigns.metrics.EXTRACTORS` under
``"reconfig"``: migration counts, key volume, most moves of one key (the
ping-pong gauge), epoch-fencing traffic (``WrongEpoch`` bounces,
residue retries, abandoned transactions), pipeline stall time, routes
that outran their reconfig (always 0 unless the fence rule is broken),
and balancer tick accounting.  All zeros on a static store scenario, so
a rebalance-on/off grid axis yields comparable rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict


def _cluster(system):
    cluster = getattr(system, "store_cluster", None)
    if cluster is None:
        raise ValueError(
            "reconfig metrics require a store scenario "
            "(ScenarioSpec.store / StoreCluster.attach)"
        )
    return cluster


def reconfig_metrics(system) -> Dict[str, float]:
    """Elastic-repartitioning counters over one finished run."""
    cluster = _cluster(system)
    ops: Dict[str, object] = {}
    completed = set()
    aborted = set()
    bounces = set()
    stall_time = 0.0
    stalled_at_end = set()
    outran = 0
    for store in cluster.stores.values():
        outran += len(store.outran)
        ops.update(store.initiated_reconfigs)
        completed.update(store.completed_reconfigs)
        aborted.update(store.aborted_reconfigs)
        for rejection in store.rejections:
            bounces.add((rejection["txn_id"], rejection["gid"]))
        stall_time += store.stall_time
        stalled_at_end.update(store.stalled_txn_ids())
    moves = Counter(key for rid in completed if rid in ops
                    for key in ops[rid].keys)
    residues = [t for t in cluster.tracker.parents]
    abandoned = sorted({txn for client in cluster.clients.values()
                        for txn in client.abandoned})
    out: Dict[str, float] = {
        "reconfigs_initiated": float(len(ops)),
        "reconfigs_completed": float(len(completed & set(ops))),
        "reconfigs_aborted": float(len(aborted & set(ops))),
        "reconfig_keys_moved": float(sum(moves.values())),
        "reconfig_max_moves_per_key": float(max(moves.values(), default=0)),
        "wrong_epoch_bounces": float(len(bounces)),
        "residue_txns": float(len(residues)),
        "txns_abandoned": float(len(abandoned)),
        "txns_stalled_at_end": float(len(stalled_at_end)),
        "migration_stall_time": float(stall_time),
        "routes_outran": float(outran),
    }
    balancer = cluster.balancer
    out["balancer_ticks"] = float(balancer.ticks if balancer else 0)
    out["balancer_ticks_blocked"] = float(
        balancer.ticks_blocked if balancer else 0)
    return out
