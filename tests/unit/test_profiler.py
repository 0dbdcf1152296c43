"""Unit and integration tests for the phase profiler."""

import time

import pytest

from repro.runtime.builder import build_system
from repro.runtime.profiler import PhaseProfiler, classify_kind
from repro.runtime.report import RunReport
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


class TestClassifyKind:
    def test_failure_detector_namespace(self):
        assert classify_kind("fd.hb") == "failure_detection"

    def test_nested_consensus_namespace(self):
        assert classify_kind("amc.cons.propose") == "consensus"
        assert classify_kind("cons.accept") == "consensus"

    def test_protocol_fallback(self):
        assert classify_kind("amc.ts") == "protocol"
        assert classify_kind("amc.rmc.data") == "protocol"
        assert classify_kind("seq.order") == "protocol"


class TestPhaseProfilerMechanics:
    def test_exclusive_nesting(self):
        profiler = PhaseProfiler()
        profiler.push("kernel")
        time.sleep(0.01)
        profiler.push("network")
        time.sleep(0.01)
        profiler.pop()
        time.sleep(0.01)
        profiler.pop()
        timings = profiler.timings()
        assert set(timings) == {"kernel", "network"}
        assert timings["kernel"] >= 0.015     # the two outer sleeps
        assert timings["network"] >= 0.008    # only the inner sleep
        assert timings["network"] < timings["kernel"]

    def test_total_spans_outermost_window(self):
        profiler = PhaseProfiler()
        t0 = time.perf_counter()
        profiler.push("kernel")
        profiler.push("network")
        profiler.push("consensus")
        time.sleep(0.005)
        profiler.pop()
        profiler.pop()
        profiler.pop()
        window = time.perf_counter() - t0
        # Exclusive times sum to (at most) the outer window; additivity
        # is the invariant the CI smoke asserts.
        assert profiler.total() == pytest.approx(window, rel=0.5)
        assert profiler.total() <= window

    def test_repeated_phases_accumulate(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            profiler.push("checkers")
            profiler.pop()
        assert list(profiler.timings()) == ["checkers"]

    def test_phase_context_manager_pops_on_error(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("checkers"):
                raise RuntimeError("boom")
        assert profiler._stack == []

    def test_canonical_ordering(self):
        profiler = PhaseProfiler()
        for phase in ("workload", "consensus", "kernel", "zebra"):
            profiler.push(phase)
            profiler.pop()
        assert list(profiler.timings()) == [
            "kernel", "consensus", "workload", "zebra"]

    def test_fraction(self):
        profiler = PhaseProfiler()
        assert profiler.fraction("kernel") is None
        profiler.push("kernel")
        time.sleep(0.002)
        profiler.pop()
        assert profiler.fraction("kernel") == pytest.approx(1.0)

    def test_render_has_total_row(self):
        profiler = PhaseProfiler()
        profiler.push("kernel")
        profiler.pop()
        assert "total" in profiler.render()


class TestProfiledSystem:
    def _run(self, **kwargs):
        system = build_system(protocol="a1", group_sizes=[2, 2],
                              seed=3, profile=True, **kwargs)
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"),
            rate=3.0, duration=10.0, destinations=uniform_k_groups(2),
        )
        schedule_workload(system, plans)
        system.run_quiescent()
        return system

    def test_phases_present_and_additive(self):
        system = self._run()
        timings = RunReport(system).phase_timings()
        assert {"kernel", "network", "protocol", "consensus",
                "workload"} <= set(timings)
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert sum(timings.values()) > 0.0

    def test_heartbeat_run_attributes_failure_detection(self):
        system = self._run(detector="heartbeat", heartbeat_period=2.0,
                           heartbeat_timeout=10.0, heartbeat_horizon=40.0)
        timings = RunReport(system).phase_timings()
        assert timings.get("failure_detection", 0.0) > 0.0

    def test_unprofiled_system_reports_empty(self):
        system = build_system(protocol="a1", group_sizes=[2, 2], seed=3)
        assert RunReport(system).phase_timings() == {}
        assert system.profiler is None

    def test_render_includes_phase_table(self):
        system = self._run()
        assert "Phase timings" in RunReport(system).render()

    def test_checkers_phase_via_context_manager(self):
        from repro.checkers.properties import check_all

        system = self._run()
        with system.profiler.phase("checkers"):
            check_all(system.log, system.topology, system.crashes)
        assert RunReport(system).phase_timings()["checkers"] > 0.0
