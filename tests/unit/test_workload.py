"""Unit tests for workload generators and the results module."""

import random

import pytest

from repro.core.interfaces import AppMessage
from repro.net.topology import Topology
from repro.runtime.results import DeliveryLog, Row, format_table
from repro.workload.generators import (
    all_groups,
    burst_workload,
    fixed_groups,
    periodic_workload,
    poisson_workload,
    uniform_k_groups,
    zipf_group_count,
)

TOPO = Topology([2, 2, 2])


class TestDestinationChoosers:
    def test_all_groups(self):
        assert all_groups(random.Random(0), TOPO, 0) == (0, 1, 2)

    def test_fixed_groups_dedupes_and_sorts(self):
        chooser = fixed_groups([2, 0, 2])
        assert chooser(random.Random(0), TOPO, 0) == (0, 2)

    def test_uniform_k_includes_sender_group(self):
        chooser = uniform_k_groups(2)
        rng = random.Random(1)
        for sender in (0, 2, 4):
            dest = chooser(rng, TOPO, sender)
            assert len(dest) == 2
            assert TOPO.group_of(sender) in dest

    def test_uniform_k_without_sender_group(self):
        chooser = uniform_k_groups(2, include_sender_group=False)
        rng = random.Random(1)
        for _ in range(20):
            dest = chooser(rng, TOPO, 0)
            assert len(dest) == 2

    def test_uniform_k_too_large_rejected(self):
        chooser = uniform_k_groups(5)
        with pytest.raises(ValueError):
            chooser(random.Random(0), TOPO, 0)

    def test_zipf_prefers_small_destination_sets(self):
        chooser = zipf_group_count(3, skew=1.5)
        rng = random.Random(2)
        sizes = [len(chooser(rng, TOPO, 0)) for _ in range(300)]
        assert sizes.count(1) > sizes.count(2) > sizes.count(3)
        assert set(sizes) <= {1, 2, 3}


class TestArrivalProcesses:
    def test_poisson_respects_duration(self):
        plans = poisson_workload(TOPO, random.Random(3), rate=2.0,
                                 duration=10.0)
        assert plans
        assert all(0.0 <= t < 10.0 for t in plans.times)

    def test_poisson_rate_roughly_matches(self):
        plans = poisson_workload(TOPO, random.Random(4), rate=5.0,
                                 duration=100.0)
        assert 350 < len(plans) < 650  # ~500 expected

    def test_poisson_restricted_senders(self):
        plans = poisson_workload(TOPO, random.Random(5), rate=2.0,
                                 duration=10.0, senders=[1, 3])
        assert set(plans.senders) <= {1, 3}

    def test_poisson_deterministic_per_seed(self):
        a = poisson_workload(TOPO, random.Random(7), rate=1.0, duration=10.0)
        b = poisson_workload(TOPO, random.Random(7), rate=1.0, duration=10.0)
        assert a == b

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="positive rate.*0.0"):
            poisson_workload(TOPO, random.Random(1), rate=0.0, duration=10.0)
        with pytest.raises(ValueError, match="positive rate.*-3"):
            poisson_workload(TOPO, random.Random(1), rate=-3, duration=10.0)

    def test_periodic_spacing_and_round_robin(self):
        plans = periodic_workload(TOPO, period=2.0, count=4,
                                  senders=[0, 3])
        assert plans.times == [0.0, 2.0, 4.0, 6.0]
        assert plans.senders == [0, 3, 0, 3]

    def test_periodic_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="positive period.*0.0"):
            periodic_workload(TOPO, period=0.0, count=4)
        with pytest.raises(ValueError, match="positive period.*-1"):
            periodic_workload(TOPO, period=-1, count=4)

    def test_periodic_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative count.*-2"):
            periodic_workload(TOPO, period=1.0, count=-2)

    def test_periodic_zero_count_is_empty(self):
        assert len(periodic_workload(TOPO, period=1.0, count=0)) == 0

    def test_burst_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError, match="positive burst count.*0"):
            burst_workload(TOPO, random.Random(1), bursts=0,
                           burst_size=4, gap=10.0)
        with pytest.raises(ValueError, match="positive burst size.*-1"):
            burst_workload(TOPO, random.Random(1), bursts=2,
                           burst_size=-1, gap=10.0)

    def test_burst_rejects_negative_gap_and_spread(self):
        with pytest.raises(ValueError, match="non-negative gap.*-5"):
            burst_workload(TOPO, random.Random(1), bursts=2,
                           burst_size=4, gap=-5.0)
        with pytest.raises(ValueError, match="non-negative spread.*-0.5"):
            burst_workload(TOPO, random.Random(1), bursts=2,
                           burst_size=4, gap=10.0, spread=-0.5)

    def test_burst_structure(self):
        plans = burst_workload(TOPO, random.Random(8), bursts=3,
                               burst_size=4, gap=100.0, spread=1.0)
        assert len(plans) == 12
        assert plans.times == sorted(plans.times)
        # Each burst's casts fall within [base, base + spread].
        for t in plans.times:
            assert t % 100.0 <= 1.0


class TestDeliveryLog:
    def test_sequences_and_counts(self):
        log = DeliveryLog()
        a = AppMessage(mid="a", sender=0, dest_groups=(0,))
        b = AppMessage(mid="b", sender=0, dest_groups=(0,))
        log.record_cast(a)
        log.record_cast(b)
        log.record_delivery(0, a)
        log.record_delivery(0, b)
        log.record_delivery(1, a)
        assert log.sequence(0) == ["a", "b"]
        assert log.sequence(1) == ["a"]
        assert log.sequence(9) == []
        assert log.delivery_count() == 3
        assert log.processes() == [0, 1]
        assert sorted(log.deliveries_of("a")) == [0, 1]
        assert set(log.cast_map) == {"a", "b"}


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(
            "Title", ["col", "value"],
            [Row("first", [1]), Row("longer-label", [2.5])],
            note="a note",
        )
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "col" in lines[2]
        assert "first" in table and "longer-label" in table
        assert "2.50" in table  # float formatting
        assert table.endswith("a note")

    def test_wide_values_stretch_columns(self):
        table = format_table("T", ["c1", "c2"],
                             [Row("x", ["a-very-wide-cell-value"])])
        header, divider, row = table.splitlines()[2:5]
        assert len(divider) >= len("a-very-wide-cell-value")
