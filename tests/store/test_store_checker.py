"""Tests for the streaming one-copy-serializability checker.

Green paths run real clusters; violation paths either hand-feed the
streaming core with adversarial delivery sequences or tamper with a
finished run's replica journals — every violation kind must be caught
and pinpointed.
"""

import pytest

from repro.core.interfaces import AppMessage
from repro.runtime.builder import SystemSpec
from repro.store import (
    SerializabilityViolation,
    StoreCluster,
    StoreSpec,
    StreamingSerializabilityChecker,
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


class TestStreamingCore:
    def test_replica_divergence_raises_at_offending_delivery(self):
        cluster = built_cluster()
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        a = txn_msg("ta", (0,))
        b = txn_msg("tb", (0,))
        checker.on_delivery(0, a)  # pid 0 fixes group 0's order: ta…
        checker.on_delivery(0, b)  # …tb
        checker.on_delivery(1, a)  # pid 1 agrees so far
        with pytest.raises(SerializabilityViolation,
                           match="disagree on their serial order"):
            checker.on_delivery(1, txn_msg("tc", (0,)))

    def test_prefix_logs_are_consistent(self):
        cluster = built_cluster()
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        a, b = txn_msg("ta", (0,)), txn_msg("tb", (0,))
        checker.on_delivery(0, a)
        checker.on_delivery(0, b)
        checker.on_delivery(1, a)  # pid 1 stops after a prefix: fine
        assert checker.group_orders()[0] == ("ta", "tb")

    def test_streaming_hook_matches_post_hoc_feed(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
            store=StoreSpec(n_keys=16, rate=1.0, duration=25.0,
                            multi_partition_fraction=0.4),
            seed=4,
        )
        live = StreamingSerializabilityChecker(cluster.system.topology)
        cluster.system.add_delivery_hook(live.on_delivery)
        cluster.system.run_quiescent()
        order_live = live.finalize(cluster)
        order_posthoc = check_serializability(cluster)
        assert order_live == order_posthoc
        assert live.deliveries == cluster.system.log.delivery_count()


class TestFinalizeViolations:
    def test_precedence_cycle_detected(self):
        cluster = built_cluster(kind="periodic", count=0)
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        a, b = txn_msg("ta", (0, 1)), txn_msg("tb", (0, 1))
        cluster.system.log.record_cast(a)
        cluster.system.log.record_cast(b)
        for pid, msg in [(0, a), (0, b),   # group 0 says ta < tb
                         (2, b), (2, a)]:  # group 1 says tb < ta
            checker.on_delivery(pid, msg)
        with pytest.raises(SerializabilityViolation,
                           match="no global serial order"):
            checker.finalize(cluster)

    def test_partial_commit_detected(self):
        cluster = built_cluster(kind="periodic", count=0)
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        msg = txn_msg("ta", (0, 1))
        cluster.system.log.record_cast(msg)
        checker.on_delivery(0, msg)  # group 0 executed, group 1 never did
        with pytest.raises(SerializabilityViolation,
                           match="partial commit"):
            checker.finalize(cluster)

    def test_phantom_transaction_detected(self):
        cluster = built_cluster(kind="periodic", count=0)
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        checker.on_delivery(0, txn_msg("ghost", (0,)))  # never cast
        with pytest.raises(SerializabilityViolation,
                           match="never submitted"):
            checker.finalize(cluster)

    def test_crashed_partition_excuses_missing_execution(self):
        cluster = built_cluster(kind="periodic", count=0)
        for pid in cluster.system.topology.members(1):
            cluster.system.network.process(pid).crashed = True
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        # k00001 is owned by (crashed) group 1, so the one-copy replay
        # has no surviving replica to compare its value against.
        msg = txn_msg("ta", (0, 1), ops=(("put", "k00001", 1),))
        cluster.system.log.record_cast(msg)
        for pid in cluster.system.topology.members(0):
            checker.on_delivery(pid, msg)
        # Group 1 never executed ta, but every replica of it crashed.
        checker.finalize(cluster)


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
        checker = StreamingSerializabilityChecker(cluster.system.topology)
        log = cluster.system.log
        for pid in log.processes():
            for msg in log.delivered_messages(pid):
                checker.on_delivery(pid, msg)
        position = {txn: i for i, txn in enumerate(order)}
        for group_order in checker.group_orders().values():
            assert [position[t] for t in group_order] \
                == sorted(position[t] for t in group_order)
