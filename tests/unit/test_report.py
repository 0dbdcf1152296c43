"""The percentile rule and the campaign extractors that report a run."""

import pytest

from repro.campaigns.metrics import (
    core_metrics,
    degree_metrics,
    latency_metrics,
    traffic_metrics,
)
from repro.runtime.builder import SystemSpec, build_system
from repro.runtime.report import percentile
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


def _mean(values):
    return sum(values) / len(values)


class TestExtractors:
    def test_degree_metrics_totals(self, finished_run):
        summary = degree_metrics(finished_run)
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

    def test_latency_metrics(self, finished_run):
        summary = latency_metrics(finished_run)
        worst = [latency for _, _, latency in _metered(finished_run)]
        assert len(worst) == 18
        assert summary["latency_worst_mean"] == _mean(worst)
        assert summary["latency_worst_max"] == max(worst)
        assert summary["latency_worst_p50"] == percentile(worst, 0.5)
        assert (summary["latency_worst_p50"] <= summary["latency_worst_p90"]
                <= summary["latency_worst_max"])
        assert summary["latency_mean_mean"] <= summary["latency_worst_mean"]

    def test_latency_metrics_of_an_unmetered_run_are_empty(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=3)
        assert latency_metrics(system) == {}
        assert degree_metrics(system)["metered"] == 0.0

    def test_latency_by_destination_count(self, finished_run):
        by_k = {}
        for k, _, latency in _metered(finished_run):
            by_k.setdefault(k, []).append(latency)
        # Cross-group messages are strictly slower than local ones.
        assert _mean(by_k[2]) > _mean(by_k[1])

    def test_messages_per_cast(self, finished_run):
        per_cast = traffic_metrics(finished_run)["messages_per_cast"]
        assert per_cast > 1.0

    def test_core_metrics(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=3)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        summary = core_metrics(system)
        assert summary["casts"] == 1
        assert summary["deliveries"] == 4
        assert summary["network_messages"] > 0
        assert summary["kernel_events"] == system.sim.events_executed
