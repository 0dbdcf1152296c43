"""Seeded transaction workloads: YCSB-style key popularity and mix.

Mirrors :mod:`repro.workload.generators` for the serving layer: a
workload is a deterministic list of :class:`TxnPlan` items — (time,
client, operations) — generated entirely from one seeded RNG stream, so
the same plan can drive different protocols in a comparison and the
campaign runner's serial-vs-parallel determinism guarantee extends to
store scenarios.

Key popularity follows a Zipf law — scoped *within each partition*
(rank-1 keys are hot, per-group load flat; the legacy mix) or, with
``popularity="global"``, over the whole keyspace so the partitions
owning globally-hot keys are hot.  The partition count per transaction
follows the declared multi-partition ratio, and transaction ids are
assigned at plan time
(``t00000`` is the first arrival) so protocol tie-breaks on mids are a
function of the seed alone, never of interpreter-global counters.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interfaces import SLOTTED
from repro.net.topology import Topology
from repro.reconfig.ring import HashRing
from repro.store.partition import PartitionMap
from repro.store.spec import StoreSpec


@dataclass(frozen=True, **SLOTTED)
class TxnPlan:
    """One planned one-shot transaction (kept for the whole run)."""

    time: float
    client: int
    txn_id: str
    ops: Tuple[Tuple, ...]


def key_name(index: int) -> str:
    return f"k{index:05d}"


def data_group_ids(spec: StoreSpec, topology: Topology) -> Tuple[int, ...]:
    """The groups that own partitions (validated against the topology)."""
    if spec.data_groups is None:
        return tuple(topology.group_ids)
    unknown = [g for g in spec.data_groups if g not in topology.group_ids]
    if unknown:
        raise ValueError(
            f"StoreSpec data_groups {unknown} not in topology "
            f"{tuple(topology.group_ids)}"
        )
    if not spec.data_groups:
        raise ValueError("StoreSpec data_groups must not be empty")
    return tuple(sorted(set(spec.data_groups)))


def partition_keys(spec: StoreSpec, topology: Topology) -> Dict[str, int]:
    """The explicit key → owner-group assignment (round-robin)."""
    groups = data_group_ids(spec, topology)
    return {key_name(i): groups[i % len(groups)]
            for i in range(spec.n_keys)}


def build_partition_map(spec: StoreSpec,
                        topology: Topology) -> PartitionMap:
    """The epoch-0 partition map for a store scenario.

    ``placement="explicit"`` pins every key round-robin (the legacy
    layout, byte-identical to previous releases); ``placement="ring"``
    lets the consistent-hash ring over the data groups own the keys,
    which is what elastic scenarios use — migrations then layer
    explicit overrides on top of the ring.
    """
    if spec.placement == "ring":
        return PartitionMap(topology, ring=HashRing(
            data_group_ids(spec, topology), vnodes=spec.ring_vnodes))
    return PartitionMap(topology, explicit=partition_keys(spec, topology))


def keys_by_group(spec: StoreSpec,
                  topology: Topology) -> Dict[int, List[str]]:
    """Owner group → its key list, in popularity-rank order."""
    pmap = build_partition_map(spec, topology)
    out: Dict[int, List[str]] = {}
    for i in range(spec.n_keys):
        key = key_name(i)
        out.setdefault(pmap.group_of(key), []).append(key)
    return out


class _ZipfPicker:
    """Draw ranks 1..n with probability ∝ 1/rank^skew (skew 0 = uniform).

    Pass ``weights`` to draw from an arbitrary popularity profile
    instead — global-popularity workloads hand each partition the
    *global* zipf weights of the keys it owns, so a group owning
    rank-1 and rank-3 keys splits its draws 1 : 1/3^skew rather than
    restarting the law at its own rank 1.
    """

    def __init__(self, n: int, skew: float,
                 weights: Optional[List[float]] = None) -> None:
        if weights is None:
            weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self._cumulative: List[float] = []
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def pick(self, rng: random.Random) -> int:
        """A zero-based rank index.

        Clamped: float summation can leave the last cumulative weight a
        few ulps under 1.0, and a draw landing in that sliver must not
        index past the end.
        """
        index = bisect_left(self._cumulative, rng.random())
        return min(index, len(self._cumulative) - 1)


def _arrival_times(spec: StoreSpec, rng: random.Random) -> List[float]:
    if spec.kind == "poisson":
        times: List[float] = []
        t = spec.start
        while True:
            t += rng.expovariate(spec.rate)
            if t >= spec.start + spec.duration:
                return times
            times.append(t)
    return [spec.start + i * spec.period for i in range(spec.count)]


def _weighted_sample(groups: List[int], mass: Dict[int, float], k: int,
                     rng: random.Random) -> List[int]:
    """``k`` distinct groups, drawn ∝ popularity mass, seed-stable."""
    pool = list(groups)
    chosen: List[int] = []
    for _ in range(k):
        total = sum(mass[g] for g in pool)
        draw = rng.random() * total
        acc = 0.0
        for i, gid in enumerate(pool):
            acc += mass[gid]
            if draw < acc:
                chosen.append(pool.pop(i))
                break
        else:  # float-summation sliver past the last cumulative weight
            chosen.append(pool.pop())
    return chosen


def _write_op(key: str, rng: random.Random) -> Tuple:
    kind = rng.choice(("put", "incr", "cas"))
    if kind == "put":
        return ("put", key, rng.randrange(1000))
    if kind == "incr":
        return ("incr", key, rng.randrange(1, 10))
    # cas against None hits fresh keys; small ints hit incr/put results
    # occasionally — both branches are deterministic either way.
    expected = rng.choice((None, 0, 1, 2, 5))
    return ("cas", key, expected, rng.randrange(1000))


def txn_workload(
    spec: StoreSpec,
    topology: Topology,
    clients: Sequence[int],
    rng: random.Random,
) -> List[TxnPlan]:
    """Materialise the transaction plan for one (spec, topology, seed).

    Each arrival picks its issuing client uniformly, its partition count
    from the multi-partition ratio, one zipf-popular key per chosen
    partition (plus zipf extras up to ``ops_per_txn``), and a
    get/put/incr/cas op per key from the read/write mix.
    """
    clients = list(clients)
    if not clients:
        raise ValueError("txn_workload needs at least one client pid")
    by_group = keys_by_group(spec, topology)
    groups = sorted(by_group)
    if spec.popularity == "global":
        # One zipf law over the whole keyspace: a partition draws with
        # the *global* weights of the keys it owns, and partitions are
        # themselves chosen ∝ their owned popularity mass — the groups
        # holding globally-hot keys become hot.
        def _w(key: str) -> float:
            return 1.0 / ((int(key[1:]) + 1) ** spec.zipf_skew)

        pickers = {gid: _ZipfPicker(len(keys), spec.zipf_skew,
                                    weights=[_w(k) for k in keys])
                   for gid, keys in by_group.items()}
        mass: Optional[Dict[int, float]] = {
            gid: sum(_w(k) for k in keys)
            for gid, keys in by_group.items()
        }
    else:
        pickers = {gid: _ZipfPicker(len(keys), spec.zipf_skew)
                   for gid, keys in by_group.items()}
        mass = None
    max_parts = min(spec.max_partitions, len(groups))
    plans: List[TxnPlan] = []
    for arrival, t in enumerate(_arrival_times(spec, rng)):
        if len(groups) > 1 and rng.random() < spec.multi_partition_fraction:
            n_parts = rng.randint(2, max_parts)
        else:
            n_parts = 1
        if mass is not None:
            chosen = sorted(_weighted_sample(groups, mass, n_parts, rng))
        else:
            chosen = sorted(rng.sample(groups, n_parts))
        keys: List[str] = []
        for gid in chosen:
            keys.append(by_group[gid][pickers[gid].pick(rng)])
        while len(keys) < spec.ops_per_txn:
            gid = rng.choice(chosen)
            keys.append(by_group[gid][pickers[gid].pick(rng)])
        ops = tuple(
            ("get", key) if rng.random() < spec.read_fraction
            else _write_op(key, rng)
            for key in keys
        )
        plans.append(TxnPlan(
            time=t, client=rng.choice(clients),
            txn_id=f"t{arrival:05d}", ops=ops,
        ))
    return plans
