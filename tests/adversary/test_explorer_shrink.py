"""Explorer + shrinker behaviour, including the broken-protocol canary.

The acceptance bar for the whole subsystem: correct protocols stay
green under every adversary; the intentionally broken FIFO-sequencer
fixture passes benignly, is caught under delay/reorder, and shrinks to
a reproducer of at most 5 faults that replays deterministically.
"""

import dataclasses

import pytest

from repro.adversary.explorer import run_case
from repro.adversary.selftest import (
    PROTOCOL_NAME,
    register_selftest_protocol,
)
from repro.adversary.shrink import shrink
from repro.adversary.spec import (
    ADVERSARIES,
    AdversarySpec,
    InjectorSpec,
    get_adversary,
)
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    ScenarioSpec,
    WorkloadSpec,
)

register_selftest_protocol()

A1_SCENARIO = ScenarioSpec(
    name="explorer-a1",
    protocol="a1",
    group_sizes=(3, 3),
    workload=WorkloadSpec(
        kind="poisson", rate=1.0, duration=20.0,
        destinations=DestinationSpec(kind="uniform-k", k=2),
    ),
    checkers=("properties",),
)

# The lossy adversaries break quasi-reliability on purpose; a1 only
# stays green above them with the transport mounted (and then the run
# must also self-stabilize once the faults stop).
A1_RELIABLE_SCENARIO = dataclasses.replace(
    A1_SCENARIO, name="explorer-a1-reliable", transport="reliable",
    checkers=("properties", "stabilization"),
)

BROKEN_SCENARIO = ScenarioSpec(
    name="selftest",
    protocol=PROTOCOL_NAME,
    group_sizes=(2, 2),
    workload=WorkloadSpec(kind="poisson", rate=2.0, duration=15.0),
    checkers=("properties",),
)


class TestRunCase:
    @pytest.mark.parametrize(
        "adversary_name",
        [n for n in ADVERSARIES
         if n != "none" and not n.startswith("lossy-")])
    def test_a1_green_under_every_adversary(self, adversary_name):
        case = run_case(A1_SCENARIO, get_adversary(adversary_name),
                        seed=1)
        assert case.ok, case.violation.message
        assert case.verdicts == {"properties": "ok"}
        assert case.total_faults > 0

    @pytest.mark.parametrize(
        "adversary_name",
        [n for n in ADVERSARIES if n.startswith("lossy-")])
    def test_a1_green_under_lossy_with_transport(self, adversary_name):
        case = run_case(A1_RELIABLE_SCENARIO,
                        get_adversary(adversary_name), seed=1)
        assert case.ok, case.violation.message
        assert case.verdicts == {"properties": "ok",
                                 "stabilization": "ok"}
        assert case.total_faults > 0

    def test_case_is_deterministic(self):
        a = run_case(A1_SCENARIO, get_adversary("delay-reorder"), seed=2)
        b = run_case(A1_SCENARIO, get_adversary("delay-reorder"), seed=2)
        assert a.delivery_orders == b.delivery_orders
        assert a.verdicts == b.verdicts
        assert a.casts == b.casts
        assert a.fault_counts == b.fault_counts

    def test_canonical_mids_are_cast_ordered(self):
        case = run_case(A1_SCENARIO, get_adversary("none"), seed=1)
        seen = {mid for order in case.delivery_orders.values()
                for mid in order}
        assert seen == {f"c{i:06d}" for i in range(case.casts)}

    def test_seed_changes_the_schedule(self):
        a = run_case(A1_SCENARIO, get_adversary("delay-reorder"), seed=1)
        b = run_case(A1_SCENARIO, get_adversary("delay-reorder"), seed=9)
        assert a.delivery_orders != b.delivery_orders

    def test_explicit_adversary_overrides_scenario_axis(self):
        import dataclasses

        named = dataclasses.replace(A1_SCENARIO, adversary="phase-crash")
        case = run_case(named, get_adversary("none"), seed=1)
        # The explicit benign spec wins: no faults were injected.
        assert case.total_faults == 0


class TestBrokenFixture:
    def test_benign_schedule_passes(self):
        case = run_case(BROKEN_SCENARIO, get_adversary("none"), seed=1)
        assert case.ok

    def test_delay_reorder_catches_it_with_context(self):
        case = run_case(BROKEN_SCENARIO, get_adversary("delay-reorder"),
                        seed=1)
        assert not case.ok
        violation = case.violation
        assert violation.checker == "properties"
        assert "prefix order" in violation.message
        assert violation.context["property"] == "uniform_prefix_order"
        assert violation.context["faults_injected"] > 0
        # Violation text uses canonical mids, so it is replay-stable.
        assert "c0000" in violation.message

    def test_shrinks_to_at_most_five_faults(self):
        case = run_case(BROKEN_SCENARIO, get_adversary("delay-reorder"),
                        seed=1)
        outcome = shrink(case)
        minimal = outcome.minimal
        assert not minimal.ok
        assert minimal.total_faults <= 5
        assert minimal.total_faults <= case.total_faults
        assert minimal.casts <= case.casts
        assert outcome.runs_used <= 120
        assert outcome.steps, "shrinker accepted no reduction at all"

    def test_shrunk_case_replays_identically(self):
        case = run_case(BROKEN_SCENARIO, get_adversary("delay-reorder"),
                        seed=1)
        minimal = shrink(case).minimal
        again = run_case(minimal.scenario, minimal.adversary,
                         minimal.seed)
        assert not again.ok
        assert again.delivery_orders == minimal.delivery_orders
        assert again.violation.message == minimal.violation.message


class TestLossyWithoutTransport:
    """``transport="none"`` + drop genuinely breaks a checker.

    The mirror image of the green lossy grid above, and the proof that
    those runs are not vacuous: strip the transport and the very same
    fault class produces a real, shrinkable, replayable counterexample
    — exactly like the broken-FIFO fixture does for reordering.
    """

    SCENARIO = ScenarioSpec(
        name="lossy-no-transport",
        protocol="a1",
        group_sizes=(2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=2.0, duration=8.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        checkers=("properties",),
        # a1 livelocks on a dropped protocol message (it retransmits
        # nothing itself); a tight event cap turns that livelock into
        # a fast, deterministic quiescence violation.
        max_events=200_000,
    )
    DROP = AdversarySpec(
        name="drop-only",
        injectors=(InjectorSpec(kind="drop",
                                params=(("probability", 0.35),)),),
    )

    def test_drop_without_transport_breaks_a_checker(self):
        case = run_case(self.SCENARIO, self.DROP, seed=1)
        assert not case.ok
        assert case.violation.checker == "quiescence"
        assert case.total_faults > 0

    def test_violation_shrinks_and_replays_via_artifact(self, tmp_path):
        from repro.adversary.artifact import replay_file, write_artifact

        case = run_case(self.SCENARIO, self.DROP, seed=1)
        outcome = shrink(case, budget=16)
        minimal = outcome.minimal
        assert not minimal.ok
        # One dropped message is enough to wedge a1 — the shrinker
        # finds that minimal schedule.
        assert minimal.total_faults == 1

        path = tmp_path / "lossy_counterexample.json"
        write_artifact(minimal, str(path),
                       shrink_summary=outcome.summary())
        result = replay_file(str(path))
        assert result.reproduced, result.diffs
        assert result.case.violation.checker == "quiescence"

    def test_transport_repairs_the_same_schedule(self):
        """Mounting the transport turns the red cell green, same seed."""
        repaired = dataclasses.replace(
            self.SCENARIO, name="lossy-repaired", transport="reliable",
            checkers=("properties", "stabilization"),
        )
        case = run_case(repaired, self.DROP, seed=1)
        assert case.ok, case.violation.message
        assert case.total_faults > 0


class TestShrinkMechanics:
    def test_shrinking_a_passing_case_is_an_error(self):
        case = run_case(A1_SCENARIO, get_adversary("none"), seed=1)
        with pytest.raises(ValueError, match="passing case"):
            shrink(case)

    def test_budget_bounds_candidate_runs(self):
        case = run_case(BROKEN_SCENARIO, get_adversary("delay-reorder"),
                        seed=1)
        outcome = shrink(case, budget=3)
        assert outcome.runs_used <= 3
        assert not outcome.minimal.ok  # still a real counterexample

    def test_shorter_horizon_drops_late_explicit_crashes(self, tmp_path):
        """Halving the workload drops the explicit crash past the new
        horizon in the same step, keeps the earlier one, and the
        shrunk case still fails and replays."""
        from repro.adversary.artifact import replay_file, write_artifact

        scenario = dataclasses.replace(
            BROKEN_SCENARIO, name="selftest-crashes", group_sizes=(3, 3),
            crashes=CrashSpec(kind="explicit",
                              crashes=((2, 3.0), (4, 14.0))),
        )
        case = run_case(scenario, get_adversary("delay-reorder"), seed=1)
        assert not case.ok
        outcome = shrink(case)
        labels = [step.description for step in outcome.steps]
        assert ("workload duration -> 7.5, 1 late crash(es) dropped"
                in labels)
        minimal = outcome.minimal
        assert not minimal.ok
        assert dict(minimal.scenario.crashes.crashes) == {2: 3.0}

        path = tmp_path / "late_crash_counterexample.json"
        write_artifact(minimal, str(path), shrink_summary=outcome.summary())
        result = replay_file(str(path))
        assert result.reproduced, result.diffs

    def test_drops_redundant_injectors(self):
        """A chaos-style composition shrinks to the one injector the
        failure needs — "fewer faults" at the composition level."""
        composite = AdversarySpec(
            name="composite",
            injectors=(
                InjectorSpec(kind="link-skew",
                             params=(("factor", 3.0), ("src_gid", 0))),
                InjectorSpec(kind="delay-reorder",
                             params=(("probability", 0.15),)),
            ),
        )
        case = run_case(BROKEN_SCENARIO, composite, seed=1)
        assert not case.ok
        minimal = shrink(case).minimal
        assert len(minimal.adversary.injectors) == 1
        assert minimal.adversary.injectors[0].kind == "delay-reorder"
