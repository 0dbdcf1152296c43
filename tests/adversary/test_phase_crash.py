"""The phase-crash injector: its kind classifier and its phase names.

``PhaseCrashInjector`` crashes a target when it handles its Nth
message of one protocol phase, as :func:`classify_kind` names them.  A
phase outside that vocabulary can never match, so the injector would
run green and inject nothing; it is refused when the injector is built.
"""

import pytest

from repro.adversary.injectors import PHASES, apply_adversary, classify_kind
from repro.adversary.spec import AdversarySpec, InjectorSpec, get_adversary
from repro.checkers.properties import check_all
from repro.runtime.builder import build_system
from repro.transport import ACK_KIND
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

    def test_transport_control_namespace(self):
        assert ACK_KIND == "tsp.ack"
        assert classify_kind(ACK_KIND) == "transport"

    def test_every_phase_is_a_classification(self):
        kinds = ("amc.ts", "amc.cons.propose", "fd.hb", "tsp.ack")
        assert {classify_kind(kind) for kind in kinds} == set(PHASES)


def _system(**kwargs):
    return build_system("a1", group_sizes=[3, 3], seed=1, **kwargs)


def _phase_crash(phase):
    return AdversarySpec(name=f"phase-crash-{phase}", injectors=(
        InjectorSpec(kind="phase-crash",
                     params=(("target", 0), ("phase", phase),
                             ("at_count", 3))),))


class TestPhaseNames:
    @pytest.mark.parametrize("phase", ["consensu", "Consensus", "kernel",
                                       "network", ""])
    def test_unknown_phase_refused_before_any_event(self, phase):
        system = _system()
        with pytest.raises(ValueError) as info:
            apply_adversary(system, _phase_crash(phase))
        for name in PHASES:
            assert repr(name) in str(info.value)
        assert system.sim.events_executed == 0
        assert system.network._filters == []

    @pytest.mark.parametrize("phase", PHASES)
    def test_every_phase_is_accepted(self, phase):
        apply_adversary(_system(), _phase_crash(phase))

    def test_kind_contains_needs_no_phase(self):
        spec = AdversarySpec(name="by-kind", injectors=(
            InjectorSpec(kind="phase-crash",
                         params=(("kind_contains", ".cons.accept"),)),))
        apply_adversary(_system(), spec)

    def test_builtin_adversary_injects_one_crash(self):
        system = _system()
        applied = apply_adversary(system, get_adversary("phase-crash"))
        _run(system)
        assert applied.total_faults == 1


def _run(system):
    plans = poisson_workload(system.topology, system.rng.stream("wl"),
                             rate=2.0, duration=20.0,
                             destinations=uniform_k_groups(2))
    schedule_workload(system, plans)
    system.run_quiescent()


# What a system must mount for the target to handle a phase's kinds:
# heartbeats for failure detection, the reliable transport for acks.
NEEDS = {
    "protocol": {},
    "consensus": {},
    "failure_detection": dict(detector="heartbeat", heartbeat_period=2.0,
                              heartbeat_timeout=10.0,
                              heartbeat_horizon=40.0),
    "transport": dict(transport="reliable"),
}


class TestEveryPhaseInjects:
    """Each accepted phase name is reachable: the injector counts the
    target's deliveries of that phase and crashes it at ``at_count``."""

    def test_needs_cover_the_vocabulary(self):
        assert set(NEEDS) == set(PHASES)

    @pytest.mark.parametrize("phase", PHASES)
    def test_phase_crashes_the_target_once(self, phase):
        system = _system(**NEEDS[phase])
        applied = apply_adversary(system, _phase_crash(phase))
        _run(system)
        injector, = applied.injectors
        assert applied.total_faults == 1
        assert injector.matched == 3
        assert system.crashes.crashes == {0: injector.crashed_at}
        assert system.network.process(0).crashed
        check_all(system.log, system.topology, system.crashes)
