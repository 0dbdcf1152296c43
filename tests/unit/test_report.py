"""Unit tests for the run-report module."""

import pytest

from repro.runtime.builder import build_system
from repro.runtime.report import LatencySummary, RunReport, percentile
from repro.workload.generators import (
    periodic_workload,
    schedule_workload,
    uniform_k_groups,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 0.5) == 5.0
        assert percentile([5.0], 0.99) == 5.0

    def test_median_of_odd_population(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = list(map(float, range(1, 101)))
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0

    def test_p90_of_uniform_range(self):
        values = list(map(float, range(1, 101)))
        assert 89.0 <= percentile(values, 0.9) <= 91.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencySummary:
    def test_fields(self):
        s = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.max == 4.0
        assert s.p50 in (2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.of([])


@pytest.fixture(scope="module")
def finished_run():
    system = build_system(protocol="a1", group_sizes=[2, 2, 2], seed=3)
    plans = periodic_workload(system.topology, period=1.0, count=12,
                              destinations=uniform_k_groups(2))
    plans += periodic_workload(system.topology, period=1.0, count=6,
                               destinations=uniform_k_groups(1),
                               start=0.5)
    schedule_workload(system, plans)
    system.run_quiescent()
    return system


class TestRunReport:
    def test_degree_histogram_totals(self, finished_run):
        report = RunReport(finished_run)
        hist = report.degree_histogram()
        assert sum(hist.values()) == 18
        assert all(deg >= 0 for deg in hist)

    def test_degree_by_destination_count(self, finished_run):
        report = RunReport(finished_run)
        by_k = report.degree_by_destination_count()
        assert set(by_k) == {1, 2}
        # The genuine lower bound holds per run: multi-group messages
        # never measure below 2.  Under cross-traffic contention they
        # may measure above it — a queued message's delivery happens
        # after later receives, which deepens its causal chain.
        assert min(by_k[2]) >= 2
        # The floor is attained by some message in this workload.
        assert 2 in by_k[2]

    def test_latency_summary(self, finished_run):
        report = RunReport(finished_run)
        summary = report.latency_summary()
        assert summary.count == 18
        assert summary.p50 <= summary.p90 <= summary.p99 <= summary.max

    def test_latency_by_destination_count(self, finished_run):
        report = RunReport(finished_run)
        by_k = report.latency_by_destination_count()
        # Cross-group messages are strictly slower than local ones.
        assert by_k[2].mean > by_k[1].mean

    def test_traffic_by_kind(self, finished_run):
        report = RunReport(finished_run)
        rows = report.traffic_by_kind()
        assert rows
        kinds = [kind for kind, _, _ in rows]
        assert any("cons" in k for k in kinds)
        for _, total, inter in rows:
            assert inter <= total

    def test_messages_per_cast(self, finished_run):
        report = RunReport(finished_run)
        per_cast = report.messages_per_cast()
        assert per_cast is not None and per_cast > 1.0

    def test_render_contains_all_sections(self, finished_run):
        text = RunReport(finished_run).render()
        assert "Latency degree histogram" in text
        assert "Worst-replica delivery latency" in text
        assert "Heaviest message kinds" in text
        assert "copies per application message" in text

    def test_empty_run_renders(self):
        system = build_system(protocol="a1", group_sizes=[2, 2], seed=1)
        text = RunReport(system).render()
        assert "Run report" in text

    def test_throughput_summary_in_run_report(self):
        system = build_system(protocol="a1", group_sizes=[2, 2], seed=3)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        report = RunReport(system)
        summary = report.throughput_summary(wall_seconds=0.5)
        assert summary["casts"] == 1
        assert summary["deliveries"] == 4
        assert summary["network_messages"] > 0
        assert summary["events_per_sec"] == summary["network_messages"] / 0.5
        assert "Engine:" in report.render()
