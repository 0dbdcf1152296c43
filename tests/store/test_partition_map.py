"""Unit tests for the store's partition map and divergence reports."""

import pytest

from repro.net.topology import Topology
from repro.reconfig.ring import HashRing
from repro.store.cluster import describe_divergence
from repro.store.partition import PartitionMap
from repro.store.spec import StoreSpec
from repro.store.workload import build_partition_map, key_name


class TestLookup:
    def test_explicit_mapping(self):
        pmap = PartitionMap(Topology([2, 2]),
                            explicit={"users": 0, "orders": 1})
        assert pmap.group_of("users") == 0
        assert pmap.group_of("orders") == 1

    def test_hash_fallback_stable_and_in_range(self):
        topo = Topology([2, 2, 2])
        pmap = PartitionMap(topo)
        for key in ("a", "b", "c", "some:key"):
            gid = pmap.group_of(key)
            assert gid == pmap.group_of(key)
            assert gid in topo.group_ids

    def test_ring_fallback_owns_unlisted_keys(self):
        ring = HashRing((1, 2), vnodes=8)
        pmap = PartitionMap(Topology([2, 2, 2]), explicit={"pinned": 0},
                            ring=ring)
        assert pmap.group_of("pinned") == 0
        for key in ("a", "b", "c", "some:key"):
            assert pmap.group_of(key) == ring.owner(key)

    def test_groups_of_multiple_keys(self):
        pmap = PartitionMap(Topology([2, 2]),
                            explicit={"x": 0, "y": 1, "z": 1})
        assert pmap.groups_of(["x", "y", "z"]) == (0, 1)
        assert pmap.groups_of(["y", "z"]) == (1,)

    def test_groups_of_empty_keys_rejected(self):
        pmap = PartitionMap(Topology([2, 2]))
        with pytest.raises(ValueError, match="at least one key"):
            pmap.groups_of(())
        with pytest.raises(ValueError, match="at least one key"):
            pmap.groups_of([])

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown group 5"):
            PartitionMap(Topology([2]), explicit={"x": 5})

    def test_is_replica(self):
        pmap = PartitionMap(Topology([2, 2]), explicit={"x": 1})
        assert pmap.is_replica(2, "x")
        assert not pmap.is_replica(0, "x")


class TestMemo:
    def test_fallback_assignment_memoised(self):
        pmap = PartitionMap(Topology([2, 2, 2]))
        first = pmap.group_of("hot-key")
        assert pmap._hash_memo == {"hot-key": first}
        # Poison the memo: a second lookup must come from it, proving
        # the sha256 path is not re-run per call.
        pmap._hash_memo["hot-key"] = (first + 1) % 3
        assert pmap.group_of("hot-key") == (first + 1) % 3

    def test_ring_assignment_memoised(self):
        ring = HashRing((0, 1), vnodes=8)
        pmap = PartitionMap(Topology([2, 2]), ring=ring)
        assert pmap.group_of("hot-key") == ring.owner("hot-key")
        assert pmap._hash_memo == {"hot-key": ring.owner("hot-key")}

    def test_explicit_keys_bypass_memo(self):
        pmap = PartitionMap(Topology([2, 2]), explicit={"users": 1})
        assert pmap.group_of("users") == 1
        assert "users" not in pmap._hash_memo


class TestMutation:
    def test_apply_bumps_epoch_and_clears_memo(self):
        pmap = PartitionMap(Topology([2, 2]))
        pmap.group_of("hot-key")
        assert pmap.apply_assignments({"a": 1}) == 1
        assert pmap.version == 1 and pmap._hash_memo == {}
        assert pmap.group_of("a") == 1

    def test_rejected_assignment_changes_nothing(self):
        pmap = PartitionMap(Topology([2, 2]), explicit={"a": 0, "b": 0})
        with pytest.raises(ValueError, match="unknown group 99"):
            pmap.apply_assignments({"a": 1, "b": 99})
        assert pmap.explicit == {"a": 0, "b": 0}
        assert pmap.version == 0
        assert pmap.group_of("a") == 0

    def test_deleting_an_override_restores_the_ring_owner(self):
        ring = HashRing((0, 1), vnodes=8)
        pmap = PartitionMap(Topology([2, 2]), ring=ring)
        home = pmap.group_of("a")
        pmap.apply_move(["a"], 1 - home)
        assert pmap.group_of("a") == 1 - home
        assert pmap.apply_assignments({"a": None}) == 2
        assert pmap.group_of("a") == home and "a" not in pmap.explicit

    def test_assignments_of_reports_explicit_entries_only(self):
        pmap = PartitionMap(Topology([2, 2]), explicit={"a": 1},
                            ring=HashRing((0, 1), vnodes=8))
        assert pmap.assignments_of(["a", "b"]) == {"a": 1, "b": None}

    def test_clone_is_independent(self):
        ring = HashRing((0, 1), vnodes=8)
        pmap = PartitionMap(Topology([2, 2]), explicit={"a": 0}, ring=ring)
        pmap.apply_move(["a"], 1)
        view = pmap.clone()
        assert view.version == 1 and view.ring is ring
        view.apply_move(["a"], 0)
        assert pmap.group_of("a") == 1 and pmap.version == 1


class TestBuildPartitionMap:
    def test_explicit_placement_round_robin_over_data_groups(self):
        spec = StoreSpec(n_keys=6, data_groups=(1, 2))
        pmap = build_partition_map(spec, Topology([2, 2, 2]))
        assert pmap.ring is None
        assert pmap.explicit == {key_name(i): (1, 2)[i % 2]
                                 for i in range(6)}

    def test_ring_placement_owns_keys_in_data_groups_only(self):
        spec = StoreSpec(n_keys=64, data_groups=(0, 2), placement="ring",
                         ring_vnodes=16)
        pmap = build_partition_map(spec, Topology([2, 2, 2]))
        assert pmap.explicit == {} and pmap.ring.groups == (0, 2)
        owners = {pmap.group_of(key_name(i)) for i in range(64)}
        assert owners == {0, 2}

    def test_ring_placement_rejects_unknown_data_group(self):
        spec = StoreSpec(placement="ring", data_groups=(0, 7))
        with pytest.raises(ValueError, match=r"data_groups \[7\]"):
            build_partition_map(spec, Topology([2, 2]))


class TestDescribeDivergence:
    def test_names_key_and_per_pid_values(self):
        detail = describe_divergence({0: {"x": 1}, 1: {"x": 2}})
        assert "key 'x'" in detail
        assert "pid 0: 1" in detail and "pid 1: 2" in detail

    def test_missing_key_reported_as_missing(self):
        detail = describe_divergence({0: {"x": 1}, 1: {}})
        assert "pid 1: <missing>" in detail

    def test_multiple_diverging_keys_all_listed(self):
        detail = describe_divergence(
            {0: {"x": 1, "y": 1}, 1: {"x": 2, "y": 2}})
        assert "key 'x'" in detail and "key 'y'" in detail

    def test_equal_snapshots_say_no_key_differs(self):
        detail = describe_divergence({0: {"x": 1}, 1: {"x": 1}})
        assert detail == "snapshots compare unequal but no key differs"
