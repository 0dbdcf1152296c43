"""The one system declaration: :class:`SystemSpec` and its scenario form."""

import pytest

from repro.campaigns import spec as campaign_spec
from repro.campaigns.runner import build_scenario_system, validate_spec
from repro.campaigns.spec import ScenarioSpec, WorkloadSpec
from repro.net import topology
from repro.runtime.builder import SystemSpec, build_system

BAD_NAMES = [("protocol", "nope"), ("detector", "psychic"),
             ("transport", "carrier-pigeon")]


@pytest.mark.parametrize("field, value", BAD_NAMES,
                         ids=[field for field, _ in BAD_NAMES])
class TestNames:
    def test_validate_refuses_unknown_name(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field} {value!r}"):
            SystemSpec(**{field: value}).validate()

    def test_validate_spec_names_the_scenario(self, field, value):
        """Refused once, when the scenario is checked, not per seed
        inside the build."""
        spec = ScenarioSpec(name="x", **{field: value})
        with pytest.raises(ValueError,
                           match=f"scenario 'x': unknown {field} {value!r}"):
            validate_spec(spec)


class TestScenarioSpec:
    def test_name_is_required(self):
        with pytest.raises(TypeError, match="name"):
            ScenarioSpec()
        with pytest.raises(TypeError, match="name"):
            ScenarioSpec(protocol="a2")

    def test_latency_spec_lives_beside_the_model(self):
        assert campaign_spec.LatencySpec is topology.LatencySpec

    def test_defaults_build_the_same_system(self):
        """A scenario's defaults and ``SystemSpec()``'s are one system:
        the same one-cast run gives the same deliveries and events."""
        workload = WorkloadSpec(kind="periodic", count=1)
        scenario, casts, _ = build_scenario_system(
            ScenarioSpec(name="defaults", workload=workload), seed=1)
        direct = build_system(SystemSpec(), seed=1)
        direct.cast_plan(workload.plans(direct.topology,
                                        direct.rng.stream("wl")))
        runs = []
        for system in (scenario, direct):
            system.run_quiescent()
            # Message ids come from a process-global counter, so the
            # sequences are compared by what was cast, not by id.
            runs.append(({pid: [(m.sender, m.dest_groups, m.payload)
                                for m in seq]
                          for pid, seq in system.log.sequences.items()},
                         system.sim.events_executed))
        assert len(casts) == 1
        assert runs[0] == runs[1]
        assert runs[0][1] > 0
