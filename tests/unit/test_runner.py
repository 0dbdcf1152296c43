"""Unit tests for the cross-seed aggregate, plus one real multi-seed use."""

import pytest

from repro.runtime.builder import build_system
from repro.runtime.runner import Aggregate


class TestAggregate:
    def test_summary_statistics(self):
        agg = Aggregate("m", [1.0, 2.0, 3.0, 4.0])
        assert agg.n == 4
        assert agg.mean == 2.5
        assert agg.minimum == 1.0
        assert agg.maximum == 4.0
        assert agg.stdev == pytest.approx(1.2909944, rel=1e-6)
        assert agg.stderr == pytest.approx(agg.stdev / 2.0)

    def test_single_value_spread_is_zero(self):
        agg = Aggregate("m", [7.0])
        assert agg.stdev == 0.0
        assert agg.stderr == 0.0


class TestRealUse:
    def test_a1_degree_floor_across_seeds(self):
        """The canonical multi-seed claim, aggregated across seeds."""
        degrees, inter = [], []
        for seed in range(6):
            system = build_system(protocol="a1", group_sizes=[2, 2],
                                  seed=seed)
            msg = system.cast(sender=0, dest_groups=(0, 1))
            system.run_quiescent()
            degrees.append(float(system.meter.latency_degree(msg.mid)))
            inter.append(float(system.inter_group_messages))
        assert Aggregate("degree", degrees).values == [2.0] * 6
        assert Aggregate("inter", inter).minimum > 0
