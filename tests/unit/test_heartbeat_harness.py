"""Determinism harness tests: elided heartbeats ≡ message heartbeats.

Each case builds the same protocol scenario under both detector modes
and asserts (via :func:`repro.failure.harness.compare_modes`) that the
suspicion-transition streams, protocol delivery orders and checker
verdicts are bit-identical — across crash-free runs, explicit crash
schedules, seed-derived random-minority schedules, and both A1 and A2.
"""

import pytest

from repro.failure.harness import SuspicionRecorder, compare_modes
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


def _make_factory(protocol, group_sizes, crashes, seed, rate=0.5,
                  duration=80.0, horizon=200.0):
    def make_system(mode):
        system = build_system(
            SystemSpec(protocol=protocol, group_sizes=group_sizes,
                       detector=("heartbeat-elided" if mode == "elided"
                                 else "heartbeat"),
                       heartbeat_period=5.0, heartbeat_timeout=20.0,
                       heartbeat_horizon=horizon),
            seed=seed, crashes=crashes)
        kwargs = ({"destinations": uniform_k_groups(2)}
                  if hasattr(system.endpoints[0], "a_mcast") else {})
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"),
            rate=rate, duration=duration, **kwargs,
        )
        schedule_workload(system, plans)
        if hasattr(system.endpoints[0], "start_rounds"):
            system.start_rounds()
        return system

    return make_system


class TestModesAgree:
    def test_crash_free_run(self):
        # Horizon beyond run_until: heartbeats never fall silent, so a
        # crash-free run must record zero suspicion transitions.
        traces = compare_modes(
            _make_factory("a1", [3, 3], CrashSchedule.none(), seed=3,
                          horizon=300.0),
            run_until=260.0,
        )
        assert traces["messages"].suspicion_transitions == []
        assert traces["messages"].fd_messages > 0
        assert traces["elided"].kernel_events < \
            traces["messages"].kernel_events

    def test_explicit_crashes(self):
        crashes = CrashSchedule({1: 40.0, 4: 70.0})
        traces = compare_modes(
            _make_factory("a1", [3, 3], crashes, seed=5), run_until=260.0)
        observed = {(obs, peer)
                    for _, obs, peer, suspected
                    in traces["elided"].suspicion_transitions if suspected}
        assert (0, 1) in observed and (5, 4) in observed
        assert traces["elided"].checker_verdict == "ok"

    def test_crash_at_exact_beat_instant(self):
        """A crash at a beat time preempts the beat, in both modes."""
        crashes = CrashSchedule({2: 45.0})  # beat grid: 0, 5, 10, ...
        compare_modes(_make_factory("a1", [3, 3], crashes, seed=7),
                      run_until=260.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_minority_crash_scenarios(self, seed):
        topology = Topology([3, 3])
        crashes = CrashSchedule.random_minority(
            topology, RngRegistry(seed).stream("harness"), window=60.0)
        compare_modes(_make_factory("a1", [3, 3], crashes, seed=seed),
                      run_until=260.0)

    def test_a2_broadcast(self):
        crashes = CrashSchedule({0: 50.0})
        compare_modes(
            _make_factory("a2", [3, 3], crashes, seed=11, rate=0.3),
            run_until=260.0,
        )


class TestSuspicionRecorder:
    def test_records_transitions_both_ways(self):
        """A suspicion that appears and clears yields two transitions."""

        class FlipFlop:
            def __init__(self, sim):
                self.sim = sim

            def suspects(self, p, q):
                return p == 0 and q == 1 and 10.0 < self.sim.now < 20.0

        sim = Simulator()
        detector = FlipFlop(sim)
        recorder = SuspicionRecorder(sim, detector, Topology([2]),
                                     until=30.0, period=1.0, offset=0.5)
        sim.run(until=30.0)
        # Probes at 10.5 ... 19.5 see True; 20.5 is the first False.
        assert recorder.transitions == [(10.5, 0, 1, True),
                                        (20.5, 0, 1, False)]

    def test_rejects_bad_period(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="period"):
            SuspicionRecorder(sim, None, Topology([2]), until=10.0,
                              period=0.0)


class TestHarnessCatchesDivergence:
    def test_mismatched_scenarios_flagged(self):
        """Feeding the harness two different scenarios must fail."""

        def make_system(mode):
            crashes = (CrashSchedule({1: 40.0}) if mode == "elided"
                       else CrashSchedule.none())
            return _make_factory("a1", [3, 3], crashes, seed=3)(mode)

        with pytest.raises(AssertionError):
            compare_modes(make_system, run_until=260.0)
