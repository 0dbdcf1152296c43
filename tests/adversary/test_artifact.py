"""Artifact serialisation, schema validation, and replay diffing."""

import json
import os

import pytest

from repro.adversary.artifact import (
    SCHEMA,
    case_to_artifact,
    load_artifact,
    replay,
    replay_file,
    write_artifact,
)
from repro.adversary.explorer import run_case
from repro.adversary.selftest import (
    PROTOCOL_NAME,
    register_selftest_protocol,
)
from repro.adversary.spec import AdversarySpec, get_adversary
from repro.campaigns.spec import ScenarioSpec, WorkloadSpec

register_selftest_protocol()

GREEN = ScenarioSpec(
    name="artifact-green",
    protocol="a1",
    group_sizes=(2, 2),
    workload=WorkloadSpec(kind="periodic", period=2.0, count=8),
    checkers=("properties",),
)

BROKEN = ScenarioSpec(
    name="artifact-broken",
    protocol=PROTOCOL_NAME,
    group_sizes=(2, 2),
    workload=WorkloadSpec(kind="poisson", rate=2.0, duration=10.0),
    checkers=("properties",),
)


def test_round_trip_preserves_specs(tmp_path):
    case = run_case(GREEN, get_adversary("partition-spike"), seed=4)
    path = str(tmp_path / "a.json")
    write_artifact(case, path)
    data = load_artifact(path)
    assert ScenarioSpec.from_dict(data["scenario"]) == GREEN
    assert (AdversarySpec.from_dict(data["adversary"])
            == get_adversary("partition-spike"))
    assert data["seed"] == 4
    assert data["violation"] is None


_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
COMMITTED = [
    os.path.join(_REPO, "COUNTEREXAMPLE_lossy_channel.json"),
    os.path.join(_REPO, "tests", "adversary", "golden",
                 "a1_partition_green.json"),
    os.path.join(_REPO, "tests", "adversary", "golden",
                 "broken_fifo_counterexample.json"),
]


@pytest.mark.parametrize("path", COMMITTED,
                         ids=[os.path.basename(p) for p in COMMITTED])
def test_committed_artifact_specs_round_trip(path):
    """A committed artifact carries only current spec fields:
    ``from_dict`` takes it with no compatibility shim and ``to_dict``
    gives back every key it holds unchanged.  Fields added after an
    artifact was written (``store``, ``transport``) take defaults."""
    data = load_artifact(path)
    spec = ScenarioSpec.from_dict(data["scenario"])
    again = json.loads(json.dumps(spec.to_dict()))
    assert {key: again[key] for key in data["scenario"]} == data["scenario"]


def test_unknown_spec_key_rejected():
    """``from_dict`` has no shim: a field the spec no longer has is an
    error, not silently dropped."""
    data = GREEN.to_dict()
    data["profile"] = False
    with pytest.raises(TypeError, match="profile"):
        ScenarioSpec.from_dict(data)


def test_green_artifact_replays(tmp_path):
    case = run_case(GREEN, get_adversary("delay-reorder"), seed=2)
    path = str(tmp_path / "g.json")
    write_artifact(case, path)
    result = replay_file(path)
    assert result.reproduced, result.diffs
    assert result.case.violation is None


def test_failing_artifact_replays_the_violation(tmp_path):
    case = run_case(BROKEN, get_adversary("delay-reorder"), seed=1)
    assert not case.ok
    path = str(tmp_path / "b.json")
    write_artifact(case, path)
    result = replay_file(path)
    assert result.reproduced, result.diffs
    assert result.case.violation is not None
    assert result.case.violation.checker == "properties"


def test_tampered_expectations_are_detected(tmp_path):
    case = run_case(GREEN, get_adversary("delay-reorder"), seed=2)
    data = case_to_artifact(case)
    pid, order = next((pid, order)
                      for pid, order in data["expected"]
                      ["delivery_orders"].items() if len(order) >= 2)
    data["expected"]["delivery_orders"][pid] = order[::-1]
    data["expected"]["casts"] += 1
    result = replay(data)
    assert not result.reproduced
    assert any("delivery order" in d for d in result.diffs)
    assert any("casts" in d for d in result.diffs)


def test_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError, match="not an adversary artifact"):
        load_artifact(str(path))


def test_missing_sections_rejected(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"schema": SCHEMA, "seed": 1}))
    with pytest.raises(ValueError, match="missing"):
        load_artifact(str(path))


def test_artifact_records_fault_accounting(tmp_path):
    case = run_case(BROKEN, get_adversary("delay-reorder"), seed=1)
    data = case_to_artifact(case, shrink_summary={"runs_used": 0})
    expected = data["expected"]
    assert expected["total_faults"] == case.total_faults
    assert expected["fault_counts"] == case.fault_counts
    assert data["shrink"] == {"runs_used": 0}
    # The whole artifact must be valid JSON end to end.
    json.loads(json.dumps(data))
