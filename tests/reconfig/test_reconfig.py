"""Integration tests for online key-range migration.

Every test drives the real stack — atomic multicast, service layer,
epoch fencing, commit tracker — through :class:`StoreCluster`; the
balancer is parked (interval beyond the horizon) so each test controls
exactly which :class:`ReconfigOp` enters the total order.  Runs are
stepped one kernel event at a time with ``StoreCluster.inv()`` asserted
at every boundary.
"""

import dataclasses

import pytest

from repro.reconfig.balancer import LoadBalancer
from repro.reconfig.checker import ReconfigViolation, check_reconfig
from repro.reconfig.txn import ReconfigOp
from repro.runtime.builder import SystemSpec
from repro.store import StoreCluster, StoreSpec, check_serializability
from repro.store.transaction import Transaction


def build_elastic(n_groups=3, seed=2, **kwargs):
    spec = StoreSpec(n_keys=9, kind="periodic", count=0,
                     rebalance_interval=10_000.0, **kwargs)
    return StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2,) * n_groups),
        store=spec, seed=seed)


def settle(cluster):
    """Run to quiescence, the routing invariants checked per event."""
    system = cluster.system
    while system.sim.pending_events:
        system.run(max_events=1)
        cluster.inv()


def first_client(cluster, gid):
    pid = cluster.system.topology.members(gid)[0]
    return cluster.client(pid)


def migrate(cluster, rid, key, dst):
    """Multicast one R moving ``key`` to ``dst`` and run to quiescence."""
    src = cluster.partition_map.group_of(key)
    op = ReconfigOp(reconfig_id=rid, src=src, dst=dst, keys=(key,))
    submitter = cluster.system.topology.members(src)[0]
    cluster.stores[submitter].submit_reconfig(op)
    settle(cluster)
    return src


class TestMigration:
    def test_completed_move_transfers_state(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        dst = (src + 1) % 3
        first_client(cluster, src).submit("t1", (("put", key, 42),))
        settle(cluster)

        migrate(cluster, "rc00001", key, dst)

        topology = cluster.system.topology
        for pid in topology.members(dst):
            assert cluster.stores[pid].state[key] == 42
        for pid in topology.members(src):
            assert key not in cluster.stores[pid].state
        summary = check_reconfig(cluster)
        assert summary["completed"] == ["rc00001"]
        assert summary["keys_moved"] == [key]
        check_serializability(cluster)

    def test_source_without_ownership_aborts_the_move(self):
        cluster = build_elastic()
        key = "k00000"
        owner = cluster.partition_map.group_of(key)
        src = (owner + 1) % 3  # does not own the key
        dst = (owner + 2) % 3
        op = ReconfigOp(reconfig_id="rc00001", src=src, dst=dst,
                        keys=(key,))
        submitter = cluster.system.topology.members(src)[0]
        cluster.stores[submitter].submit_reconfig(op)
        settle(cluster)

        summary = check_reconfig(cluster)
        assert summary["aborted"] == ["rc00001"]
        # The true owner still serves the key; the target rolled back.
        for pid in cluster.system.topology.members(dst):
            assert key not in cluster.stores[pid].state

    def test_stale_client_bounces_and_residue_commits(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        dst = (src + 1) % 3
        other = (src + 2) % 3
        migrate(cluster, "rc00001", key, dst)

        # A session homed in a bystander group still routes the key to
        # its old owner: the owner fences, the residue retries at dst.
        stale = first_client(cluster, other)
        stale.submit("t2", (("put", key, 7),))
        settle(cluster)

        tracker = cluster.tracker
        assert "t2" in tracker.committed
        assert any(parent == "t2" for parent in tracker.parents.values())
        assert ("t2", src) in tracker.bounces
        assert stale.overrides[key] == dst
        assert stale.fences[key] == {src}
        assert stale.learned[key] == "rc00001"
        for pid in cluster.system.topology.members(dst):
            assert cluster.stores[pid].state[key] == 7
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_fence_legs_ride_later_transactions(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        dst = (src + 1) % 3
        other = (src + 2) % 3
        migrate(cluster, "rc00001", key, dst)
        stale = first_client(cluster, other)
        stale.submit("t2", (("put", key, 7),))
        settle(cluster)

        # Until the move is pushed, the session that only *bounced*
        # knows no more than that the bouncer delivered R: its next
        # transactions on the key also go to the bouncer, which orders
        # them after R at the new owner too.
        msg = stale.submit("t3", (("incr", key, 1),))
        assert set(msg.dest_groups) == {src, dst}
        settle(cluster)

        # The push ends that: every replica of the new owner has
        # executed R and H, so nothing cast from here on can precede R.
        stale.learn(key, dst, "rc00001")
        msg = stale.submit("t4", (("incr", key, 1),))
        assert set(msg.dest_groups) == {dst}
        settle(cluster)
        for pid in cluster.system.topology.members(dst):
            assert cluster.stores[pid].state[key] == 9
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_tampered_snapshot_is_detected(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        first_client(cluster, src).submit("t1", (("put", key, 42),))
        settle(cluster)
        migrate(cluster, "rc00001", key, (src + 1) % 3)

        for store in cluster.stores.values():
            h = store.handoffs.get("rc00001")
            if h is not None:
                store.handoffs["rc00001"] = dataclasses.replace(
                    h, snapshot=((key, 999),))
        with pytest.raises(ReconfigViolation, match="lost or invented"):
            check_reconfig(cluster)


class TestServiceStage:
    def test_fence_leg_delivery_has_no_local_work(self):
        cluster = build_elastic(service_time=1.0)
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        dst = (src + 1) % 3
        store = cluster.stores[cluster.system.topology.members(src)[0]]
        local = Transaction(txn_id="tx-local", client=0,
                            ops=(("put", key, 1),),
                            routes=((key, src),))
        fence_only = Transaction(txn_id="tx-fence", client=0,
                                 ops=(("put", key, 1),),
                                 routes=((key, dst),))
        assert store._has_local_work(local)
        assert not store._has_local_work(fence_only)


class TestDemandHeat:
    def test_tracker_journals_issues_at_register(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        first_client(cluster, src).submit("t1", (("put", key, 1),))
        assert cluster.tracker.key_issues[-1][1] == (key,)


class TestBalancerSplit:
    def _heat_keys(self, cluster, gid, want=2):
        keys = [f"k{i:05d}" for i in range(cluster.spec.n_keys)
                if cluster.partition_map.group_of(f"k{i:05d}") == gid]
        if len(keys) < want:
            pytest.skip("seeded placement put too few keys on the group")
        return keys[:want]

    def test_greedy_split_moves_only_strict_improvements(self):
        cluster = build_elastic()
        gid = cluster.partition_map.group_of("k00000")
        hot, warm = self._heat_keys(cluster, gid)
        journal = cluster.tracker.key_issues
        journal.extend([(0.0, (hot,))] * 60 + [(0.0, (warm,))] * 40)

        bal = cluster.balancer
        bal._tick()
        assert len(bal.migrations) == 1
        _, _, src, _, keys = bal.migrations[0]
        assert src == gid
        # Moving the hottest key improves balance (60 vs 40); moving
        # the warm one too would just relocate the whole imbalance.
        assert keys == (hot,)

    def test_indivisibly_hot_key_does_not_ping_pong(self):
        cluster = build_elastic()
        gid = cluster.partition_map.group_of("k00000")
        (hot,) = self._heat_keys(cluster, gid, want=1)
        cluster.tracker.key_issues.extend([(0.0, (hot,))] * 100)

        bal = cluster.balancer
        bal._tick()
        # All the heat sits on one key: no destination can take it and
        # end up strictly better balanced, so the balancer holds still.
        assert bal.migrations == []

    def test_completed_move_is_pushed_to_every_session(self):
        cluster = build_elastic()
        key = "k00000"
        src = cluster.partition_map.group_of(key)
        dst = (src + 1) % 3
        migrate(cluster, "rc00001", key, dst)

        bal = cluster.balancer
        bal._outstanding = ReconfigOp(reconfig_id="rc00001", src=src,
                                      dst=dst, keys=(key,))
        bal._tick()
        assert bal.pushes == 1 and bal.pushed == ["rc00001"]
        # A pushed session casts to the new owner alone: no leg.
        for client in cluster.clients.values():
            assert client.overrides[key] == dst
            assert client.learned[key] == "rc00001"
            assert key not in client.fences
            msg = client.submit(f"t-{client.pid}", (("incr", key, 1),))
            assert msg.dest_groups == (dst,)
        settle(cluster)
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_validation(self):
        cluster = build_elastic()
        with pytest.raises(ValueError, match="interval"):
            LoadBalancer(cluster, interval=0.0)
        with pytest.raises(ValueError, match="threshold"):
            LoadBalancer(cluster, interval=1.0, threshold=0.5)
        with pytest.raises(ValueError, match="max_keys"):
            LoadBalancer(cluster, interval=1.0, max_keys=0)


class TestReconfigOp:
    def test_payload_round_trip(self):
        op = ReconfigOp(reconfig_id="rc1", src=0, dst=2,
                        keys=("a", "b"))
        assert ReconfigOp.from_payload(op.to_payload()) == op

    def test_self_move_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            ReconfigOp(reconfig_id="rc1", src=1, dst=1, keys=("a",))

    def test_empty_move_rejected(self):
        with pytest.raises(ValueError, match="no keys"):
            ReconfigOp(reconfig_id="rc1", src=0, dst=1, keys=())
