"""Seeded property tests for the consistent-hash ring.

The two properties the elastic partition map buys the ring for:
balance (keys spread evenly across groups) and locality of change
(adding or removing one group remaps only ≈ 1/n of the keyspace).
Keyspaces are derived from a fixed seed, so these are reproducible
property checks, not flaky statistics.
"""

import random

import pytest

from repro.reconfig.ring import HashRing


def _keys(n, seed=7):
    rng = random.Random(seed)
    return [f"k{rng.randrange(10**9):09d}" for _ in range(n)]


def _counts(ring, keys):
    counts = {g: 0 for g in ring.groups}
    for key in keys:
        counts[ring.owner(key)] += 1
    return counts


class TestBalance:
    @pytest.mark.parametrize("n_groups", [8, 16, 24])
    def test_max_min_ratio_bounded(self, n_groups):
        ring = HashRing(range(n_groups), vnodes=64)
        counts = _counts(ring, _keys(4096))
        assert min(counts.values()) > 0
        assert max(counts.values()) / min(counts.values()) < 2.5

    def test_more_vnodes_tighten_the_spread(self):
        keys = _keys(4096)
        spreads = []
        for vnodes in (1, 64):
            counts = _counts(HashRing(range(16), vnodes=vnodes), keys)
            spreads.append(max(counts.values()) - min(counts.values()))
        assert spreads[1] < spreads[0]

    def test_ring_is_order_insensitive(self):
        keys = _keys(512)
        a = HashRing([3, 1, 4, 1, 5], vnodes=32)
        b = HashRing([5, 4, 3, 1], vnodes=32)
        assert a.groups == b.groups
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]


class TestLocalityOfChange:
    @pytest.mark.parametrize("n_groups", [8, 16, 24])
    def test_adding_one_group_remaps_about_one_nth(self, n_groups):
        keys = _keys(4096)
        ring = HashRing(range(n_groups), vnodes=64)
        grown = HashRing(range(n_groups + 1), vnodes=64)
        moved = [k for k in keys if grown.owner(k) != ring.owner(k)]
        expected = len(keys) / (n_groups + 1)
        assert 0.5 * expected < len(moved) < 2.0 * expected
        # Every remapped key lands on the new group; nothing shuffles
        # between the survivors (the modulo assignment fails this).
        assert all(grown.owner(k) == n_groups for k in moved)

    @pytest.mark.parametrize("n_groups", [8, 16])
    def test_removing_one_group_remaps_only_its_keys(self, n_groups):
        keys = _keys(4096)
        ring = HashRing(range(n_groups), vnodes=64)
        shrunk = HashRing(range(1, n_groups), vnodes=64)
        for key in keys:
            if ring.owner(key) == 0:
                assert shrunk.owner(key) != 0
            else:
                assert shrunk.owner(key) == ring.owner(key)


class TestValidation:
    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing([0, 1], vnodes=0)
