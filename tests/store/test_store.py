"""Integration tests for the transactional partitioned store."""

import pytest

from repro.checkers.properties import check_all
from repro.failure.schedule import CrashSchedule
from repro.net.topology import LatencySpec
from repro.runtime.builder import SystemSpec
from repro.store import StoreCluster, StoreSpec, check_serializability


def run_cluster(protocol="a1", seed=1, spec=None, group_sizes=(2, 2, 2)):
    cluster = StoreCluster.build(
        SystemSpec(protocol=protocol, group_sizes=group_sizes),
        store=spec or StoreSpec(n_keys=18, rate=1.0, duration=25.0,
                                multi_partition_fraction=0.4),
        seed=seed,
    )
    cluster.system.run_quiescent()
    return cluster


class TestServing:
    def test_end_to_end_green(self):
        cluster = run_cluster()
        assert cluster.tracker.committed
        assert not cluster.tracker.uncommitted()
        cluster.assert_convergence()
        check_serializability(cluster)
        check_all(cluster.system.log, cluster.system.topology,
                  cluster.system.crashes)

    def test_manual_submission_and_local_reads(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2)),
            store=StoreSpec(n_keys=4, kind="periodic", count=0), seed=3,
        )
        keymap = cluster.partition_map
        key = next(k for k in ("k00000", "k00001")
                   if keymap.group_of(k) == 0)
        client = cluster.client(0)
        client.submit("manual-1", (("put", key, 42),))
        client.submit("manual-2", (("incr", key, 8),))
        cluster.system.run_quiescent()
        for pid in cluster.system.topology.members(0):
            assert cluster.store(pid).get(key) == 50
        check_serializability(cluster)

    def test_reads_outside_partition_rejected(self):
        cluster = run_cluster()
        key = "k00000"
        owner = cluster.partition_map.group_of(key)
        outsider = next(
            pid for pid in cluster.system.topology.processes
            if cluster.system.topology.group_of(pid) != owner
        )
        with pytest.raises(KeyError):
            cluster.store(outsider).get(key)

    def test_cross_partition_txn_metered_at_degree_two(self):
        """Store casts go through the system's meter and log: a
        transaction spanning two partitions is an A1 multicast to two
        groups, delivered at the paper's latency degree 2."""
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2)),
            store=StoreSpec(n_keys=4, kind="periodic", count=0), seed=1,
        )
        keymap = cluster.partition_map
        ops = tuple(("put", next(k for k in ("k00000", "k00001")
                                 if keymap.group_of(k) == gid), gid)
                    for gid in (0, 1))
        msg = cluster.client(0).submit("cross-1", ops)
        cluster.system.run_quiescent()
        assert msg.dest_groups == (0, 1)
        assert cluster.system.meter.latency_degree(msg.mid) == 2
        check_all(cluster.system.log, cluster.system.topology)
        check_serializability(cluster)

    def test_commit_latency_recorded_per_txn(self):
        cluster = run_cluster()
        latencies = cluster.tracker.latencies()
        assert len(latencies) == len(cluster.plans)
        assert all(lat >= 0.0 for lat in latencies)
        span = cluster.tracker.commit_span()
        assert span is not None and span[0] <= span[1]

    def test_genuine_routing_targets_owner_groups_only(self):
        cluster = run_cluster()
        keymap = cluster.partition_map
        plan_by_id = {p.txn_id: p for p in cluster.plans}
        for mid, msg in cluster.system.log.cast_map.items():
            plan = plan_by_id[mid]
            owners = sorted({keymap.group_of(op[1]) for op in plan.ops})
            assert list(msg.dest_groups) == owners

    @pytest.mark.parametrize(
        "protocol", ("a2", "sequencer", "optimistic", "detmerge"))
    def test_broadcast_routing_targets_every_group(self, protocol):
        """Full replication runs on any atomic broadcast.  Their orders
        (and so the final data) may differ; each must be serializable."""
        cluster = run_cluster(
            protocol=protocol,
            spec=StoreSpec(n_keys=18, rate=0.6, duration=25.0,
                           routing="broadcast"),
        )
        for msg in cluster.system.log.cast_map.values():
            assert tuple(msg.dest_groups) == (0, 1, 2)
        assert not cluster.tracker.uncommitted()
        cluster.assert_convergence()
        check_serializability(cluster)

    def test_genuine_routing_rejected_on_broadcast_protocols(self):
        with pytest.raises(ValueError, match="broadcast protocol"):
            StoreCluster.build(SystemSpec(protocol="a2", group_sizes=(2, 2)),
                               store=StoreSpec())

    def test_duplicate_tracker_registration_rejected(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2)),
            store=StoreSpec(n_keys=4, kind="periodic", count=0), seed=3,
        )
        cluster.client(0).submit("dup-1", (("put", "k00000", 1),))
        with pytest.raises(ValueError, match="already tracked"):
            cluster.client(0).submit("dup-1", (("put", "k00000", 2),))


class TestCrossProtocol:
    def test_same_final_state_on_every_multicast_protocol(self):
        """One plan, many protocols: the serving layer is protocol-
        agnostic, so the committed data must be identical."""
        snapshots = {}
        for protocol in ("a1", "a1-noskip", "skeen", "fritzke", "ring",
                         "global"):
            cluster = run_cluster(protocol=protocol, seed=9)
            assert not cluster.tracker.uncommitted()
            cluster.assert_convergence()
            check_serializability(cluster)
            snapshots[protocol] = tuple(
                tuple(sorted(cluster.store(pid).owned_snapshot().items()))
                for pid in cluster.system.topology.processes
            )
        assert len(set(snapshots.values())) == 1

    def test_genuine_vs_broadcast_same_data_different_traffic(self):
        spec = StoreSpec(n_keys=18, rate=0.8, duration=25.0,
                         multi_partition_fraction=0.3)
        import dataclasses

        genuine = run_cluster(protocol="a1", seed=5, spec=spec,
                              group_sizes=(2, 2, 2, 2))
        broadcast = run_cluster(
            protocol="a2", seed=5,
            spec=dataclasses.replace(spec, routing="broadcast"),
            group_sizes=(2, 2, 2, 2),
        )
        # Same plans (seeded identically), same committed count…
        assert [p.txn_id for p in genuine.plans] \
            == [p.txn_id for p in broadcast.plans]
        assert len(genuine.tracker.committed) \
            == len(broadcast.tracker.committed)
        # …but the broadcast deployment moves strictly more copies.
        assert (broadcast.system.network.stats.total_messages
                > genuine.system.network.stats.total_messages)


class TestConvergenceReporting:
    def _tampered(self):
        cluster = run_cluster(group_sizes=(2, 2))
        first, second = cluster.system.topology.members(0)
        key, value = sorted(cluster.store(first).owned_snapshot().items())[0]
        cluster.store(second).state[key] = "mallory"
        return cluster, first, second, key, value

    def test_divergence_names_group_key_and_both_values(self):
        cluster, first, second, key, value = self._tampered()
        with pytest.raises(AssertionError) as exc:
            cluster.assert_convergence()
        message = str(exc.value)
        assert "group 0 replicas diverged" in message
        assert f"key {key!r}" in message
        assert f"pid {first}: {value!r}" in message
        assert f"pid {second}: 'mallory'" in message

    def test_crashed_replica_not_compared(self):
        cluster, _, second, _, _ = self._tampered()
        cluster.system.network.process(second).crashed = True
        cluster.assert_convergence()


class TestUnderCrashes:
    def test_minority_crashes_stay_serialisable(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(3, 3)),
            store=StoreSpec(n_keys=12, rate=0.8, duration=30.0,
                            multi_partition_fraction=0.4),
            seed=5, crashes=CrashSchedule({0: 6.0, 4: 12.0}),
        )
        cluster.system.run_quiescent()
        cluster.assert_convergence()
        check_serializability(cluster)
        check_all(cluster.system.log, cluster.system.topology,
                  cluster.system.crashes)


    def test_minority_crashes_under_full_replication(self):
        """Full replication over A2 keeps every correct replica of
        every group on the same execution order through crashes."""
        cluster = StoreCluster.build(
            SystemSpec(protocol="a2", group_sizes=(3, 3)),
            store=StoreSpec(n_keys=12, rate=0.8, duration=30.0,
                            routing="broadcast"),
            seed=9, crashes=CrashSchedule({2: 0.5, 5: 1.5}),
        )
        cluster.system.run_quiescent()
        correct = [pid for pid in cluster.system.topology.processes
                   if not cluster.system.network.process(pid).crashed]
        assert {tuple(cluster.store(pid).applied) for pid in correct} \
            == {tuple(cluster.store(correct[0]).applied)}
        assert cluster.tracker.committed
        cluster.assert_convergence()
        check_serializability(cluster)
        check_all(cluster.system.log, cluster.system.topology,
                  cluster.system.crashes)


class TestCommitPoint:
    """A static store (no service time, no balancer) executes inside
    the A-Deliver, so the tracker's commit instant, observed at
    execution, is the instant the last destination group first
    A-Delivered the transaction."""

    @pytest.mark.parametrize("protocol, routing, crashes", [
        ("a1", "genuine", None),
        ("a2", "broadcast", None),
        ("a1", "genuine", {0: 6.0, 4: 12.0}),
    ], ids=["genuine", "broadcast", "crash"])
    def test_commit_instant_is_last_group_first_delivery(
            self, protocol, routing, crashes):
        # WAN jitter spreads a group's deliveries over distinct instants.
        cluster = StoreCluster.build(
            SystemSpec(protocol=protocol, group_sizes=(3, 3, 3),
                       latency=LatencySpec.wan()),
            store=StoreSpec(n_keys=18, rate=1.0, duration=25.0,
                            multi_partition_fraction=0.4, routing=routing),
            seed=5, crashes=CrashSchedule(crashes),
        )
        system = cluster.system
        system.run_quiescent()
        topology = system.topology
        expected = {}
        for mid, record in system.log.record_map.items():
            firsts = []
            for gid in record.dest_groups:
                times = [t for pid, t in record.delivery_time.items()
                         if topology.group_of(pid) == gid]
                if not times:
                    break
                firsts.append(min(times))
            else:
                expected[mid] = max(firsts)
        committed = cluster.tracker.committed
        assert len(committed) > 20
        assert {txn_id: commit for txn_id, (_, commit)
                in committed.items()} == expected
        if crashes:
            assert any(system.network.process(pid).crashed
                       for pid in crashes)

    @pytest.mark.parametrize("routing", ["genuine", "broadcast"])
    def test_service_time_commits_at_last_group_first_execution(
            self, routing):
        """With a service stage, execution lags delivery; the commit
        instant follows execution."""
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
            store=StoreSpec(n_keys=18, rate=1.0, duration=25.0,
                            multi_partition_fraction=0.4, routing=routing,
                            service_time=0.5),
            seed=5,
        )
        system = cluster.system
        topology = system.topology
        first_exec = {}

        def on_execute(pid, txn_id):
            at = first_exec.setdefault(txn_id, {})
            at.setdefault(topology.group_of(pid), system.sim.now)

        for store in cluster.stores.values():
            store.on_execute_hooks.append(on_execute)
        system.run_quiescent()
        committed = cluster.tracker.committed
        assert len(committed) > 20
        lagged = 0
        for txn_id, (_, commit) in committed.items():
            record = system.log.record_map[txn_id]
            assert commit == max(first_exec[txn_id][gid]
                                 for gid in record.dest_groups)
            delivered = max(min(t for pid, t in record.delivery_time.items()
                                if topology.group_of(pid) == gid)
                            for gid in record.dest_groups)
            # A group with no local work for the transaction takes
            # its journal position at delivery, without the service
            # stage.
            assert commit >= delivered
            lagged += commit > delivered
        assert lagged > len(committed) // 2


class TestInvolvement:
    def test_spectator_groups_idle_under_genuine_routing(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2, 2, 2)),
            store=StoreSpec(n_keys=12, data_groups=(0, 1), rate=0.8,
                            duration=25.0, multi_partition_fraction=0.4),
            seed=2, trace=True,
        )
        cluster.system.run_quiescent()
        report = cluster.involvement()
        assert report.non_destination_groups() == [2, 3]
        assert report.non_destination_traffic() == 0
        assert sorted(report.involved_groups()) == [0, 1]

    def test_nongenuine_involves_spectators(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="nongenuine", group_sizes=(2, 2, 2, 2)),
            store=StoreSpec(n_keys=12, data_groups=(0, 1), rate=0.8,
                            duration=25.0, multi_partition_fraction=0.4),
            seed=2, trace=True,
        )
        cluster.system.run_quiescent()
        report = cluster.involvement()
        assert report.non_destination_groups() == [2, 3]
        assert report.non_destination_traffic() > 0
        assert sorted(report.involved_groups()) == [0, 1, 2, 3]
        check_serializability(cluster)

    def test_involvement_requires_trace(self):
        cluster = run_cluster()
        with pytest.raises(ValueError, match="trace=True"):
            cluster.involvement()
