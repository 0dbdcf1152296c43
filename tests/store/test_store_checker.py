"""Tests for the one-copy-serializability checker.

Green paths run real clusters; violation paths either hand-write
replica execution journals on an idle cluster or tamper with a finished
run's journals — every violation kind must be caught and pinpointed.
Both go through the checker's one entry, ``ingest_journals`` then
``finalize``.
"""

import pytest

from repro.core.interfaces import AppMessage
from repro.runtime.builder import SystemSpec
from repro.store import (
    SerializabilityChecker,
    SerializabilityViolation,
    StoreCluster,
    StoreSpec,
    check_serializability,
)
from repro.store.transaction import Transaction


def txn_msg(txn_id, dest_groups, ops=(("put", "k", 1),), sender=0):
    txn = Transaction(txn_id=txn_id, client=sender,
                      ops=tuple(tuple(op) for op in ops))
    return AppMessage(mid=txn_id, sender=sender, dest_groups=dest_groups,
                      payload=txn.to_payload())


def built_cluster(seed=1, **spec_kwargs):
    defaults = dict(n_keys=16, rate=1.0, duration=25.0,
                    multi_partition_fraction=0.4)
    defaults.update(spec_kwargs)
    cluster = StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
        store=StoreSpec(**defaults), seed=seed,
    )
    cluster.system.run_quiescent()
    return cluster


def idle_cluster():
    """A (2, 2, 2) cluster whose run cast nothing: every journal empty."""
    return built_cluster(kind="periodic", count=0)


def execute_at(cluster, pids, *msgs):
    """Append ``msgs``' transactions to the journals of ``pids``."""
    for pid in pids:
        store = cluster.stores[pid]
        for msg in msgs:
            store.applied.append(msg.mid)
            store.applied_txns.append(Transaction.from_payload(msg.payload))


def ingested(cluster):
    checker = SerializabilityChecker(cluster.system.topology)
    checker.ingest_journals(cluster)
    return checker


class TestReplicaConsistency:
    def test_replica_divergence_raises_at_offending_item(self):
        cluster = idle_cluster()
        a, b = txn_msg("ta", (0,)), txn_msg("tb", (0,))
        execute_at(cluster, [0], a, b)  # pid 0 fixes group 0's order
        execute_at(cluster, [1], a, txn_msg("tc", (0,)))  # pid 1 strays
        with pytest.raises(SerializabilityViolation,
                           match="disagree on their serial order") as exc:
            ingested(cluster)
        assert exc.value.context == dict(
            kind="replica_divergence", pid=1, gid=0, txn="tc",
            position=1, expected="tb")

    def test_crashed_replica_may_stop_at_a_prefix(self):
        cluster = idle_cluster()
        a, b = txn_msg("ta", (0,)), txn_msg("tb", (0,))
        execute_at(cluster, [0], a, b)
        execute_at(cluster, [1], a)  # pid 1 stops after a prefix…
        cluster.system.network.process(1).crashed = True  # …and crashed
        assert ingested(cluster).group_orders()[0] == ("ta", "tb")

    def test_static_journals_are_the_delivery_logs(self):
        """Without service queues a replica executes at delivery, so
        each group's canonical journal is its longest delivery log."""
        cluster = built_cluster(seed=4)
        log = cluster.system.log
        topology = cluster.system.topology
        longest = {}
        for pid in log.processes():
            seq = tuple(log.sequence(pid))
            gid = topology.group_of(pid)
            if len(seq) > len(longest.get(gid, ())):
                longest[gid] = seq
        checker = ingested(cluster)
        assert checker.group_orders() == longest
        assert checker.finalize(cluster) == check_serializability(cluster)


class TestFinalizeViolations:
    def test_precedence_cycle_detected(self):
        cluster = idle_cluster()
        a, b = txn_msg("ta", (0, 1)), txn_msg("tb", (0, 1))
        cluster.system.log.record_cast(a)
        cluster.system.log.record_cast(b)
        execute_at(cluster, [0, 1], a, b)  # group 0 says ta < tb
        execute_at(cluster, [2, 3], b, a)  # group 1 says tb < ta
        checker = ingested(cluster)
        with pytest.raises(SerializabilityViolation,
                           match="no global serial order"):
            checker.finalize(cluster)

    def test_partial_commit_detected(self):
        cluster = idle_cluster()
        msg = txn_msg("ta", (0, 1))
        cluster.system.log.record_cast(msg)
        execute_at(cluster, [0, 1], msg)  # group 0 executed, 1 never did
        checker = ingested(cluster)
        with pytest.raises(SerializabilityViolation,
                           match="partial commit"):
            checker.finalize(cluster)

    def test_phantom_transaction_detected(self):
        cluster = idle_cluster()
        execute_at(cluster, [0, 1], txn_msg("ghost", (0,)))  # never cast
        checker = ingested(cluster)
        with pytest.raises(SerializabilityViolation,
                           match="never submitted"):
            checker.finalize(cluster)

    def test_crashed_partition_excuses_missing_execution(self):
        cluster = idle_cluster()
        for pid in cluster.system.topology.members(1):
            cluster.system.network.process(pid).crashed = True
        # k00001 is owned by (crashed) group 1, so the one-copy replay
        # has no surviving replica to compare its value against.
        msg = txn_msg("ta", (0, 1), ops=(("put", "k00001", 1),))
        cluster.system.log.record_cast(msg)
        execute_at(cluster, cluster.system.topology.members(0), msg)
        # Group 1 never executed ta, but every replica of it crashed.
        assert ingested(cluster).finalize(cluster) == ("ta",)


class TestTamperedRuns:
    """Corrupt a finished healthy run; the checker must pinpoint it."""

    def test_state_divergence(self):
        cluster = built_cluster()
        store = cluster.stores[0]
        key = next(iter(store.state), None) or "k00000"
        store.state[key] = "corrupted"
        with pytest.raises(SerializabilityViolation,
                           match="state divergence") as exc:
            check_serializability(cluster)
        assert exc.value.context["pid"] == 0
        assert exc.value.context["key"] == key

    def test_read_divergence(self):
        cluster = built_cluster(read_fraction=1.0)
        store, txn_id, index = self._find_read(cluster)
        store._effects[txn_id].reads[index] = "stale value"
        with pytest.raises(SerializabilityViolation,
                           match="read divergence") as exc:
            check_serializability(cluster)
        assert exc.value.context["txn"] == txn_id

    def test_cas_divergence(self):
        cluster = built_cluster(read_fraction=0.0, seed=3)
        store, txn_id, index = self._find_cas(cluster)
        store._effects[txn_id].cas_applied[index] = \
            not store._effects[txn_id].cas_applied[index]
        with pytest.raises(SerializabilityViolation,
                           match="cas divergence"):
            check_serializability(cluster)

    @staticmethod
    def _find_read(cluster):
        for store in cluster.stores.values():
            for txn_id, effects in store._effects.items():
                for index in effects.reads:
                    return store, txn_id, index
        pytest.skip("run recorded no reads")

    @staticmethod
    def _find_cas(cluster):
        for store in cluster.stores.values():
            for txn_id, effects in store._effects.items():
                for index in effects.cas_applied:
                    return store, txn_id, index
        pytest.skip("run recorded no cas ops")


class TestGreenPath:
    def test_serial_order_covers_every_committed_txn(self):
        cluster = built_cluster(seed=8)
        order = check_serializability(cluster)
        assert set(order) == set(cluster.system.log.cast_map)
        # The serial order respects every partition's canonical log.
        position = {txn: i for i, txn in enumerate(order)}
        for group_order in ingested(cluster).group_orders().values():
            assert [position[t] for t in group_order] \
                == sorted(position[t] for t in group_order)
