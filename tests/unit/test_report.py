"""Unit tests for the run-report module."""

import pytest

from repro.runtime.builder import SystemSpec, build_system
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
    system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2, 2]),
                          seed=3)
    plans = periodic_workload(system.topology, period=1.0, count=12,
                              destinations=uniform_k_groups(2))
    plans += periodic_workload(system.topology, period=1.0, count=6,
                               destinations=uniform_k_groups(1),
                               start=0.5)
    schedule_workload(system, plans)
    system.run_quiescent()
    return system


def _metered(system):
    """(|dest|, degree, worst-replica latency) per metered message."""
    return [(len(rec.dest_groups), rec.latency_degree,
             rec.worst_delivery_latency)
            for rec in system.meter.records()
            if rec.latency_degree is not None]


class TestRunReport:
    def test_degree_summary_totals(self, finished_run):
        summary = RunReport(finished_run).degree_summary()
        assert summary["metered"] == 18
        assert summary["degree_max"] >= summary["degree_mean"] >= 0

    def test_degree_by_destination_count(self, finished_run):
        by_k = {}
        for k, degree, _ in _metered(finished_run):
            by_k.setdefault(k, set()).add(degree)
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
        by_k = {}
        for k, _, latency in _metered(finished_run):
            by_k.setdefault(k, []).append(latency)
        # Cross-group messages are strictly slower than local ones.
        assert (LatencySummary.of(by_k[2]).mean
                > LatencySummary.of(by_k[1]).mean)

    def test_messages_per_cast(self, finished_run):
        report = RunReport(finished_run)
        per_cast = report.messages_per_cast()
        assert per_cast is not None and per_cast > 1.0

    def test_throughput_summary_in_run_report(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=3)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        summary = RunReport(system).throughput_summary()
        assert summary["casts"] == 1
        assert summary["deliveries"] == 4
        assert summary["network_messages"] > 0
        assert summary["kernel_events"] == system.sim.events_executed
