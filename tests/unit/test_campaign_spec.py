"""Unit tests for the declarative scenario specs and matrix expansion."""

import pickle
import random

import pytest

from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
    matrix,
    with_seeds,
)
from repro.net.topology import Fixed, Jittered, Topology

TOPO = Topology([3, 3])


class TestLatencySpec:
    def test_logical_builds_fixed_links(self):
        model = LatencySpec.logical().build()
        assert isinstance(model.inter, Fixed)
        assert model.inter.value == 1.0

    def test_wan_builds_jittered_links(self):
        model = LatencySpec.wan(inter_ms=200.0, inter_jitter_ms=3.0).build()
        assert isinstance(model.inter, Jittered)
        assert model.inter.base == 200.0
        assert model.inter.jitter == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown latency kind"):
            LatencySpec(kind="quantum").build()


class TestDestinationSpec:
    def test_kinds_build_choosers(self):
        rng = random.Random(1)
        assert DestinationSpec(kind="all").build()(rng, TOPO, 0) == (0, 1)
        assert DestinationSpec(kind="fixed", groups=(1,)).build()(
            rng, TOPO, 0) == (1,)
        assert len(DestinationSpec(kind="uniform-k", k=2).build()(
            rng, TOPO, 0)) == 2
        assert len(DestinationSpec(kind="zipf", max_k=2).build()(
            rng, TOPO, 0)) in (1, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown destination kind"):
            DestinationSpec(kind="everywhere").build()


class TestWorkloadSpec:
    def test_poisson_plans_are_seed_deterministic(self):
        spec = WorkloadSpec(kind="poisson", rate=1.0, duration=20.0)
        a = spec.plans(TOPO, random.Random(5))
        b = spec.plans(TOPO, random.Random(5))
        assert a == b and a

    def test_periodic_and_burst_plans(self):
        periodic = WorkloadSpec(kind="periodic", period=2.0, count=3)
        assert periodic.plans(TOPO, random.Random(0)).times \
            == [0.0, 2.0, 4.0]
        burst = WorkloadSpec(kind="burst", bursts=2, burst_size=3, gap=50.0)
        assert len(burst.plans(TOPO, random.Random(0))) == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="tsunami").plans(TOPO, random.Random(0))


class TestCrashSpec:
    def test_none_and_explicit(self):
        assert len(CrashSpec().build(TOPO, random.Random(0))) == 0
        explicit = CrashSpec(kind="explicit", crashes=((1, 5.0),))
        schedule = explicit.build(TOPO, random.Random(0))
        assert schedule.crash_time(1) == 5.0

    def test_random_minority_is_rng_deterministic(self):
        spec = CrashSpec(kind="random-minority", window=20.0,
                         probability=1.0)
        a = spec.build(TOPO, random.Random(9)).crashes
        b = spec.build(TOPO, random.Random(9)).crashes
        assert a == b
        spec.build(TOPO, random.Random(9)).validate(TOPO)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown crash kind"):
            CrashSpec(kind="meteor").build(TOPO, random.Random(0))


class TestMatrix:
    BASE = ScenarioSpec(name="base")

    def test_cartesian_expansion_and_names(self):
        specs = matrix(self.BASE, {
            "protocol": ["a1", "skeen"],
            "workload.count": [5, 10],
        })
        assert len(specs) == 4
        assert [s.name for s in specs] == [
            "base/protocol=a1/count=5",
            "base/protocol=a1/count=10",
            "base/protocol=skeen/count=5",
            "base/protocol=skeen/count=10",
        ]
        assert specs[3].protocol == "skeen"
        assert specs[3].workload.count == 10
        # The base spec is untouched (frozen dataclasses all the way).
        assert self.BASE.protocol == "a1"
        assert self.BASE.workload.count == 10

    def test_nested_paths_reach_sub_specs(self):
        specs = matrix(self.BASE, {
            "latency.inter_ms": [50.0, 150.0],
            "workload.destinations.k": [2, 3],
        })
        assert {s.latency.inter_ms for s in specs} == {50.0, 150.0}
        assert {s.workload.destinations.k for s in specs} == {2, 3}

    def test_tuple_axis_values_make_readable_names(self):
        specs = matrix(self.BASE, {"group_sizes": [(2, 2), (3, 3, 3)]})
        assert [s.name for s in specs] == [
            "base/group_sizes=2x2", "base/group_sizes=3x3x3",
        ]

    def test_no_axes_returns_base(self):
        assert matrix(self.BASE, {}) == [self.BASE]

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError, match="no field 'velocity'"):
            matrix(self.BASE, {"velocity": [1]})
        with pytest.raises(KeyError, match="no field 'velocity'"):
            matrix(self.BASE, {"workload.velocity": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            matrix(self.BASE, {"protocol": []})

    def test_with_seeds_overrides_every_spec(self):
        specs = with_seeds(matrix(self.BASE, {"protocol": ["a1", "a2"]}),
                           [7, 8, 9])
        assert all(s.seeds == (7, 8, 9) for s in specs)
        with pytest.raises(ValueError, match="at least one seed"):
            with_seeds(specs, [])


class TestPicklability:
    def test_specs_survive_pickling(self):
        """Workers receive specs over a pipe; nothing in them may close
        over live objects."""
        spec = ScenarioSpec(
            name="p", protocol="a2",
            latency=LatencySpec.wan(),
            workload=WorkloadSpec(
                kind="burst",
                destinations=DestinationSpec(kind="zipf", max_k=3)),
            crashes=CrashSpec(kind="random-minority"),
            protocol_kwargs=(("propose_delay", 1.0),),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert dict(clone.protocol_kwargs) == {"propose_delay": 1.0}
