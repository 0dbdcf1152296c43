"""Unit tests for the store spec and transaction workload generator."""

import random

import pytest

from repro.net.topology import Topology
from repro.store.spec import StoreSpec
from repro.store.workload import (
    data_group_ids,
    key_name,
    keys_by_group,
    partition_keys,
    txn_workload,
)

TOPO = Topology([2, 2, 2, 2])
CLIENTS = [0, 2, 4, 6]


class TestStoreSpec:
    def test_defaults_valid(self):
        StoreSpec()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(n_keys=0), "positive n_keys"),
        (dict(routing="teleport"), "unknown routing"),
        (dict(kind="bursty"), "unknown arrival kind"),
        (dict(clients_per_group=0), "positive clients_per_group"),
        (dict(read_fraction=1.5), "within"),
        (dict(multi_partition_fraction=-0.1), "within"),
        (dict(max_partitions=1), "max_partitions"),
        (dict(ops_per_txn=0), "positive ops_per_txn"),
        (dict(zipf_skew=-1.0), "non-negative zipf_skew"),
        (dict(kind="poisson", rate=0.0), "positive rate"),
        (dict(kind="periodic", period=0.0), "positive period"),
        (dict(kind="periodic", count=-1), "non-negative count"),
        (dict(kind="poisson", duration=0.0), "positive duration"),
        (dict(kind="poisson", duration=-5.0), "positive duration"),
    ])
    def test_invalid_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            StoreSpec(**kwargs)

    def test_horizon_covers_both_arrival_kinds(self):
        assert StoreSpec(kind="poisson", duration=30.0).horizon == 30.0
        assert StoreSpec(kind="periodic", period=2.0, count=5,
                         start=1.0).horizon == 9.0

    def test_from_dict_revives_tuples(self):
        spec = StoreSpec(data_groups=(0, 2))
        revived = StoreSpec.from_dict(
            {**spec.__dict__, "data_groups": [0, 2]})
        assert revived == spec


class TestPartitioning:
    def test_round_robin_over_data_groups(self):
        spec = StoreSpec(n_keys=6, data_groups=(1, 3))
        assignment = partition_keys(spec, TOPO)
        assert assignment == {key_name(i): (1, 3)[i % 2] for i in range(6)}

    def test_all_groups_by_default(self):
        by_group = keys_by_group(StoreSpec(n_keys=8), TOPO)
        assert sorted(by_group) == [0, 1, 2, 3]
        assert all(len(keys) == 2 for keys in by_group.values())

    def test_unknown_data_group_rejected(self):
        with pytest.raises(ValueError, match="not in topology"):
            data_group_ids(StoreSpec(data_groups=(9,)), TOPO)

    def test_empty_data_groups_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            data_group_ids(StoreSpec(data_groups=()), TOPO)


class TestTxnWorkload:
    SPEC = StoreSpec(n_keys=24, rate=1.0, duration=60.0,
                     multi_partition_fraction=0.5, ops_per_txn=2)

    def test_seed_deterministic(self):
        a = txn_workload(self.SPEC, TOPO, CLIENTS, random.Random(7))
        b = txn_workload(self.SPEC, TOPO, CLIENTS, random.Random(7))
        assert a == b and a

    def test_txn_ids_assigned_by_arrival(self):
        plans = txn_workload(self.SPEC, TOPO, CLIENTS, random.Random(1))
        assert [p.txn_id for p in plans[:3]] == ["t00000", "t00001", "t00002"]
        assert all(plans[i].time <= plans[i + 1].time
                   for i in range(len(plans) - 1))

    def test_clients_and_ops_within_spec(self):
        plans = txn_workload(self.SPEC, TOPO, CLIENTS, random.Random(3))
        keymap = partition_keys(self.SPEC, TOPO)
        for plan in plans:
            assert plan.client in CLIENTS
            assert len(plan.ops) >= 1
            groups = {keymap[op[1]] for op in plan.ops}
            assert 1 <= len(groups) <= self.SPEC.max_partitions

    def test_multi_partition_fraction_realised(self):
        spec = StoreSpec(n_keys=24, rate=4.0, duration=100.0,
                         multi_partition_fraction=0.5)
        plans = txn_workload(spec, TOPO, CLIENTS, random.Random(11))
        keymap = partition_keys(spec, TOPO)
        multi = sum(
            1 for p in plans
            if len({keymap[op[1]] for op in p.ops}) > 1
        )
        assert 0.3 < multi / len(plans) < 0.7

    def test_zero_multi_partition_fraction_stays_local(self):
        spec = StoreSpec(n_keys=24, rate=2.0, duration=50.0,
                         multi_partition_fraction=0.0)
        keymap = partition_keys(spec, TOPO)
        for p in txn_workload(spec, TOPO, CLIENTS, random.Random(2)):
            assert len({keymap[op[1]] for op in p.ops}) == 1

    def test_zipf_skew_concentrates_popularity(self):
        flat_spec = StoreSpec(n_keys=40, rate=4.0, duration=200.0,
                              data_groups=(0,), zipf_skew=0.0)
        hot_spec = StoreSpec(n_keys=40, rate=4.0, duration=200.0,
                             data_groups=(0,), zipf_skew=2.0)

        def top_key_share(spec):
            plans = txn_workload(spec, TOPO, CLIENTS, random.Random(5))
            counts = {}
            total = 0
            for p in plans:
                for op in p.ops:
                    counts[op[1]] = counts.get(op[1], 0) + 1
                    total += 1
            return max(counts.values()) / total

        assert top_key_share(hot_spec) > 2 * top_key_share(flat_spec)

    def test_read_fraction_extremes(self):
        reads_only = StoreSpec(n_keys=8, rate=2.0, duration=30.0,
                               read_fraction=1.0)
        for p in txn_workload(reads_only, TOPO, CLIENTS, random.Random(4)):
            assert all(op[0] == "get" for op in p.ops)
        writes_only = StoreSpec(n_keys=8, rate=2.0, duration=30.0,
                                read_fraction=0.0)
        for p in txn_workload(writes_only, TOPO, CLIENTS, random.Random(4)):
            assert all(op[0] in ("put", "incr", "cas") for op in p.ops)

    def test_periodic_arrivals(self):
        spec = StoreSpec(kind="periodic", period=2.0, count=4, n_keys=8)
        plans = txn_workload(spec, TOPO, CLIENTS, random.Random(0))
        assert [p.time for p in plans] == [0.0, 2.0, 4.0, 6.0]

    def test_no_clients_rejected(self):
        with pytest.raises(ValueError, match="at least one client"):
            txn_workload(self.SPEC, TOPO, [], random.Random(0))
