"""One serializability pass per checker pass.

``reconfig`` compares the run's handoffs against the one-copy replay
of a passing serializability check.  When a checker pass has just run
``serializability`` green on the same system, with no kernel event
since, ``reconfig`` takes that pass's replay instead of replaying the
run again.  Anything else — a failed pass, more events, a direct
``check_reconfig`` or ``check_serializability`` call — does the whole
work, so every verdict and message is the one a separate pass gives.
"""

import pytest

from repro.adversary.explorer import run_case
from repro.adversary.spec import get_adversary
from repro.campaigns.runner import (
    CHECKERS,
    build_scenario_system,
    run_checkers,
    run_scenario_seed,
)
from repro.reconfig.checker import check_reconfig
from repro.store import SerializabilityChecker, check_serializability

from test_checker_oracle import (
    rebalance_cell,
    t_state_value,
    t_swap_second_member,
)


@pytest.fixture
def finalize_calls(monkeypatch):
    """Count ``SerializabilityChecker.finalize`` calls (the replay)."""
    return _counted(monkeypatch, "finalize")


@pytest.fixture
def ingest_calls(monkeypatch):
    """Count ``ingest_journals`` calls: every pass starts with one."""
    return _counted(monkeypatch, "ingest_journals")


def _counted(monkeypatch, name):
    calls = []
    method = getattr(SerializabilityChecker, name)

    def counted(self, cluster):
        calls.append(cluster)
        return method(self, cluster)

    monkeypatch.setattr(SerializabilityChecker, name, counted)
    return calls


def finished_system(seed=1):
    system, _, _ = build_scenario_system(rebalance_cell(), seed)
    system.run_quiescent()
    return system


def test_the_cell_checks_both_and_moves_keys():
    spec = rebalance_cell()
    assert {"serializability", "reconfig"} <= set(spec.checkers)
    assert check_reconfig(finished_system().store_cluster)["completed"]


CELLS = pytest.mark.parametrize("adversary", [None, "phase-crash"])


@CELLS
def test_run_scenario_seed_replays_once(adversary, finalize_calls):
    result = run_scenario_seed(rebalance_cell(adversary), 1)
    assert result.checkers["serializability"] == "ok"
    assert result.checkers["reconfig"] == "ok"
    assert len(finalize_calls) == 1


@CELLS
def test_explorer_replays_once(adversary, finalize_calls):
    spec = rebalance_cell(adversary)
    case = run_case(spec, get_adversary(spec.adversary), 1)
    assert case.violation is None
    assert case.verdicts["reconfig"] == "ok"
    assert len(finalize_calls) == 1


def test_reused_replay_is_the_one_a_separate_pass_builds():
    system = finished_system()
    CHECKERS["serializability"](system)
    events, replay = system.checked_replay
    assert events == system.sim.events_executed
    checker = SerializabilityChecker(system.topology)
    checker.ingest_journals(system.store_cluster)
    checker.finalize(system.store_cluster)
    assert replay == checker.reconfig_replay and replay
    assert check_reconfig(system.store_cluster, replay) == \
        check_reconfig(system.store_cluster)


@pytest.mark.parametrize("tamper", [t_state_value, t_swap_second_member],
                         ids=lambda t: t.__name__)
def test_tampering_after_a_green_pass_fails_reconfig_as_before(
        tamper, ingest_calls):
    """A failing re-check leaves nothing to reuse: ``reconfig`` runs
    its own pass and fails with the text a lone ``check_reconfig``
    raises."""
    system = finished_system()
    spec = rebalance_cell()
    assert set(run_checkers(system, spec).values()) == {"ok"}
    tamper(system.store_cluster)
    with pytest.raises(AssertionError) as alone:
        check_reconfig(system.store_cluster)
    del ingest_calls[:]
    verdicts = run_checkers(system, spec)
    assert verdicts["reconfig"] == f"FAIL: {alone.value}"
    assert verdicts["serializability"] == f"FAIL: {alone.value}"
    assert len(ingest_calls) == 2
    assert system.checked_replay is None


def test_a_check_after_more_kernel_events_recomputes(finalize_calls):
    system = finished_system()
    CHECKERS["serializability"](system)
    CHECKERS["reconfig"](system)
    assert len(finalize_calls) == 1
    sim = system.sim
    sim.call_at(sim.now + 1.0, lambda: None)
    system.run_quiescent()
    CHECKERS["reconfig"](system)
    assert len(finalize_calls) == 2


def test_direct_calls_never_reuse(finalize_calls):
    system = finished_system()
    cluster = system.store_cluster
    CHECKERS["serializability"](system)
    check_serializability(cluster)
    check_serializability(cluster)
    check_reconfig(cluster)
    assert len(finalize_calls) == 4
