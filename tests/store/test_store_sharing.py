"""One transaction object per txn id, one effects record per group.

A replica executes the :class:`Transaction` its client submitted (the
cluster's ``txns`` table) and stores a group peer's effects object when
both observed the same thing; the serializability checker reads those
same objects.  Sharing must never hide what a replica observed: a
replica whose state diverged keeps its own effects, and the checker
names it in the same words.  In a run with no reconfig the checker
reads an untagged txn's responsible group from the atomicity pass; an
oracle kept here recomputes it the walk's old way.
"""

import gc
import tracemalloc

import pytest

from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import LatencySpec, ScenarioSpec
from repro.core.interfaces import AppMessage
from repro.runtime.builder import SystemSpec
from repro.store import (
    SerializabilityViolation,
    StoreCluster,
    StoreSpec,
    StreamingSerializabilityChecker,
    check_serializability,
)
from repro.store.checker import correct_members
from repro.store.transaction import NO_ENTRIES, Transaction


def store_mix(scale):
    """The ``store_mix`` benchmark scenario, its plan divided by
    ``scale`` (÷4 plans 1 804 transactions)."""
    return ScenarioSpec(
        name="store_mix", protocol="a1", group_sizes=(2,) * 8,
        latency=LatencySpec.wan(),
        store=StoreSpec(n_keys=256, rate=0.12, duration=60000.0 / scale,
                        read_fraction=0.5, multi_partition_fraction=0.4,
                        zipf_skew=1.0),
    )


def small_cluster(seed=1, crash_group_at=None):
    """A (2, 2, 2) A1 store run; optionally every replica of group 1
    crashes at ``crash_group_at``."""
    cluster = StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
        store=StoreSpec(n_keys=16, rate=1.0, duration=25.0,
                        multi_partition_fraction=0.4),
        seed=seed,
    )
    if crash_group_at is not None:
        for pid in cluster.system.topology.members(1):
            cluster.system.sim.call_at(
                crash_group_at, cluster.system.network.process(pid).crash)
    return cluster


@pytest.fixture(scope="module")
def mix_run():
    system, _, _ = build_scenario_system(store_mix(20), 42)
    system.run_quiescent()
    return system.store_cluster


def ingested(cluster):
    checker = StreamingSerializabilityChecker(cluster.system.topology)
    checker.ingest_journals(cluster)
    return checker


class TestOneTransaction:
    def test_journals_and_checker_hold_the_submitted_object(self, mix_run):
        checker = ingested(mix_run)
        executed = 0
        for store in mix_run.stores.values():
            assert store.txns is mix_run.txns
            for txn_id, txn in zip(store.applied, store.applied_txns):
                assert txn is mix_run.txns[txn_id]
                assert checker._txns[txn_id] is txn
                executed += 1
        assert executed == mix_run.system.log.delivery_count() > 500
        assert set(mix_run.txns) == set(mix_run.system.log.cast_map)

    def test_a_payload_from_elsewhere_is_parsed(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2)),
            store=StoreSpec(n_keys=4, kind="periodic", count=0), seed=3)
        store = cluster.store(0)
        key = next(k for k in ("k00000", "k00001")
                   if cluster.partition_map.group_of(k) == 0)
        submitted = Transaction("t", client=0, ops=(("put", key, 1),))
        store.submit(submitted)
        # A hand-built message under the same id, another payload.
        other = Transaction("t", client=0, ops=(("put", key, 2),))
        store._on_deliver(AppMessage(mid="t", sender=0, dest_groups=(0,),
                                     payload=other.to_payload()))
        assert cluster.txns["t"] is submitted
        assert store.applied_txns[-1] == other
        assert store.get(key) == 2


class TestSharedEffects:
    def test_peers_with_equal_effects_hold_one_object(self, mix_run):
        topology = mix_run.system.topology
        both = 0
        for gid in topology.group_ids:
            first, second = (mix_run.stores[pid]
                             for pid in topology.members(gid))
            assert first.peers == [second] and second.peers == [first]
            assert first._effects.keys() == second._effects.keys()
            for txn_id, mine in first._effects.items():
                theirs = second.effects_of(txn_id)
                assert mine == theirs  # a healthy run: equal everywhere
                assert mine is theirs
                both += 1
        assert both > 400

    def test_maps_without_entries_are_the_shared_empty_one(self, mix_run):
        empty = 0
        for store in mix_run.stores.values():
            for effects in store._effects.values():
                for entries in (effects.reads, effects.cas_applied):
                    if not entries:
                        assert entries is NO_ENTRIES
                        empty += 1
        assert empty and NO_ENTRIES == {}

    @pytest.mark.parametrize("member", [0, 1])
    def test_diverged_replica_keeps_its_own_and_is_named(self, member):
        reference = small_cluster(seed=1)
        reference.system.run_quiescent()
        group, prior, txn_id, index, key = self._read_after(reference)
        pid, peer = group[member], group[1 - member]
        want = reference.stores[peer].effects_of(txn_id).reads[index]

        cluster = small_cluster(seed=1)
        store = cluster.stores[pid]

        def diverge(msg):
            if msg.mid == prior:  # executed just now, before the read
                store.state[key] = "diverged"

        cluster.system.add_delivery_tap(pid, diverge)
        cluster.system.run_quiescent()
        mine = store.effects_of(txn_id)
        theirs = cluster.stores[peer].effects_of(txn_id)
        assert mine is not theirs
        assert mine.reads[index] == "diverged"
        assert theirs.reads[index] == want != "diverged"
        with pytest.raises(SerializabilityViolation) as exc:
            check_serializability(cluster)
        assert str(exc.value) == (
            f"read divergence: replica {pid} served {txn_id} "
            f"op#{index} get({key!r}) = 'diverged', but the one-copy "
            f"replay reads {want!r}")
        assert exc.value.context == {
            "kind": "read_divergence", "pid": pid, "txn": txn_id,
            "key": key, "op_index": index}

    @staticmethod
    def _read_after(cluster):
        """(the group's pids, the txn before the read in their journal,
        the reading txn, op index, key): the first op of the txn on
        that key is a get of a key that already holds a value."""
        topology = cluster.system.topology
        for gid in topology.group_ids:
            group = topology.members(gid)
            store = cluster.stores[group[0]]
            for position in range(1, len(store.applied)):
                txn = store.applied_txns[position]
                effects = store.effects_of(txn.txn_id)
                touched = set()
                for index, op in enumerate(txn.ops):
                    if (op[0] == "get" and op[1] not in touched
                            and effects.reads.get(index) is not None):
                        return (tuple(group), store.applied[position - 1],
                                txn.txn_id, index, op[1])
                    touched.add(op[1])
        pytest.skip("run recorded no read of a written key")


def facts_oracle(checker, epoch0):
    """The walk's old record for untagged txns: (txn id, key) -> True
    iff the group whose journal holds the txn owns the key at epoch 0."""
    facts = {}
    for gid, order in checker.group_orders().items():
        for txn_id in order:
            for op in checker._txns[txn_id].ops:
                if epoch0.group_of(op[1]) == gid:
                    facts[(txn_id, op[1])] = True
    return facts


class TestOwnedShortcut:
    @pytest.mark.parametrize("run", ["store_mix", "partition_crashed"])
    def test_owned_agrees_with_the_facts_oracle(self, run, mix_run):
        if run == "store_mix":
            cluster = mix_run
        else:
            cluster = small_cluster(seed=1, crash_group_at=6.0)
            cluster.system.run_quiescent()
        checker = ingested(cluster)
        executed_in = checker._check_atomicity(
            cluster, correct_members(cluster))
        walk = checker._walk_groups(cluster, executed_in)
        assert not walk.controls and not walk.facts
        oracle = facts_oracle(checker, cluster.partition_map)
        checked = 0
        for txn_id, txn in checker._txns.items():
            owned = walk.owned(txn)
            for op in txn.ops:
                assert owned(op[1]) == oracle.get((txn_id, op[1]), False)
                checked += 1
        assert checked > 20
        if run == "partition_crashed":
            cast_map = cluster.system.log.cast_map
            # A txn addressed to the crashed partition that only its
            # other destinations executed: its key there is not owned.
            assert any(1 in cast_map[t].dest_groups and 1 not in gids
                       for t, gids in executed_in.items())
            check_serializability(cluster)


class TestStoreMemory:
    def test_store_mix_run_keeps_few_bytes_per_txn(self):
        """Set-up plus run of the ÷4 ``store_mix`` plan (1 804 txns)
        keeps ≤ 2 500 traced bytes per transaction (≈ 2 000 on CPython
        3.11): one Transaction per txn id, no second copy of its ops,
        and one slotted effects record per group.  A parsed
        Transaction per delivery and a two-dict effects record per
        replica read ≈ 3 200."""
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system, _, _ = build_scenario_system(store_mix(4), 42)
            system.run_quiescent()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        txns = len(system.store_cluster.plans)
        assert txns == 1804
        assert system.store_cluster.tracker.uncommitted() == []
        per_txn = retained / txns
        assert per_txn <= 2500, f"{per_txn:.0f} B per transaction"
