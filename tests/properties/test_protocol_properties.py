"""Property-based end-to-end tests: random workloads, random crashes.

These fuzz the full protocol stacks over the simulated WAN and assert
the paper's four correctness properties plus latency-degree invariants
on every generated run.  Runs are kept small (hypothesis executes many
of them) but cover the interesting axes: seeds, topology shapes, cast
timings, destination sets and crash schedules.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import (
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.checkers.properties import check_all
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.builder import SystemSpec, build_system

# Keep hypothesis example counts modest: each example is a full
# distributed-system run.
FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_system(draw):
    """(group_sizes, seed) for a modest topology."""
    n_groups = draw(st.integers(min_value=2, max_value=3))
    sizes = [draw(st.integers(min_value=1, max_value=3))
             for _ in range(n_groups)]
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return sizes, seed


@st.composite
def casts(draw, n_groups, max_casts=5):
    """A list of (time, sender_gid, dest_groups) cast plans."""
    count = draw(st.integers(min_value=1, max_value=max_casts))
    plans = []
    for _ in range(count):
        time = draw(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False))
        sender_gid = draw(st.integers(min_value=0, max_value=n_groups - 1))
        dest = draw(st.sets(
            st.integers(min_value=0, max_value=n_groups - 1),
            min_size=1, max_size=n_groups))
        plans.append((time, sender_gid, tuple(sorted(dest))))
    return plans


class TestA1Properties:
    @FAST
    @given(small_system(), st.data())
    def test_all_properties_on_random_runs(self, sys_params, data):
        sizes, seed = sys_params
        plans = data.draw(casts(len(sizes)))
        system = build_system(SystemSpec(protocol="a1", group_sizes=sizes),
                              seed=seed)
        for time, sender_gid, dest in plans:
            sender = system.topology.members(sender_gid)[0]
            system.cast_at(time, sender, dest)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology)

    @FAST
    @given(small_system(), st.data())
    def test_genuine_lower_bound_on_random_runs(self, sys_params, data):
        """No multi-group message ever beats latency degree 2."""
        sizes, seed = sys_params
        plans = data.draw(casts(len(sizes), max_casts=3))
        system = build_system(SystemSpec(protocol="a1", group_sizes=sizes),
                              seed=seed)
        multi = []
        for time, sender_gid, dest in plans:
            sender = system.topology.members(sender_gid)[0]
            msg = system.cast_at(time, sender, dest)
            if len(dest) > 1:
                multi.append(msg)
        system.run_quiescent(max_events=2_000_000)
        for msg in multi:
            degree = system.meter.latency_degree(msg.mid)
            assert degree is not None and degree >= 2

    @SLOW
    @given(st.integers(min_value=0, max_value=5_000), st.data())
    def test_properties_under_random_minority_crashes(self, seed, data):
        topology = Topology([3, 3])
        # Hypothesis-chosen minority crash schedule (at most 1 of 3 per
        # group), crashing mid-run.
        crashes = {}
        for gid in (0, 1):
            if data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(topology.members(gid)))
                crashes[victim] = data.draw(
                    st.floats(min_value=0.1, max_value=20.0,
                              allow_nan=False))
        schedule = CrashSchedule(crashes)
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]),
                              seed=seed, crashes=schedule)
        for t in (0.0, 2.0, 9.0):
            sender = data.draw(st.sampled_from(system.topology.processes))
            system.cast_at(t, sender, (0, 1))
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology, schedule)


class TestA1DeliveryGuardOverNonFifoLinks:
    """A1's s3 guard bounds pending finals by remote clocks it derives
    from (TS, m) copies.  Jitter and ``delay-reorder`` make later copies
    of one sender overtake earlier ones, loss under the transport makes
    them arrive a retransmission late: a bound read off arrival order
    ("highest instance seen") delivers out of timestamp order here."""

    _REORDER = InjectorSpec(
        kind="delay-reorder",
        params=(("probability", 0.3), ("extra_min", 1.0),
                ("extra_max", 60.0)))
    _LOSS = tuple(
        InjectorSpec(kind=kind,
                     params=(("probability", p), ("until", 600.0)))
        for kind, p in (("drop", 0.10), ("duplicate", 0.05)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("transport", ["none", "reliable"])
    def test_deliveries_follow_final_timestamps(self, transport, k, seed):
        lossy = transport == "reliable"
        adversary = AdversarySpec(
            name="reorder-lossy" if lossy else "reorder",
            injectors=(self._REORDER,) + (self._LOSS if lossy else ()))
        spec = ScenarioSpec(
            name="guard-nonfifo", protocol="a1", group_sizes=(3, 3, 3, 3),
            latency=LatencySpec.wan(),
            workload=WorkloadSpec(
                kind="poisson", rate=0.25, duration=600.0,
                destinations=DestinationSpec(kind="uniform-k", k=k)),
            transport=transport,
            checkers=("properties",) + (("stabilization",) if lossy
                                        else ()))
        system, _, applied = build_scenario_system(spec, seed, adversary)
        # Test-side taps: every group's proposal crosses the wire to the
        # other destination groups, so the final timestamp of m is the
        # largest stamp any (TS, m) copy carried.
        finals = {}
        sequences = {pid: [] for pid in system.endpoints}

        def note_proposal(netmsg):
            if netmsg.kind == "amc.ts":
                mid = netmsg.payload["mid"]
                finals[mid] = max(finals.get(mid, 0), netmsg.payload["ts"])
            return True

        system.network.add_delivery_filter(note_proposal)
        system.add_delivery_hook(
            lambda pid, msg: sequences[pid].append(msg.mid))
        system.run_quiescent(max_events=5_000_000)

        assert all(n > 0 for n in applied.fault_counts().values())
        verdicts = run_checkers(system, spec)
        assert all(v == "ok" for v in verdicts.values()), verdicts
        for pid, sequence in sequences.items():
            stamps = [(finals[mid], mid) for mid in sequence]
            assert stamps == sorted(stamps), (pid, [
                (a, b) for a, b in zip(stamps, stamps[1:]) if a > b][:3])
            assert len(set(sequence)) == len(sequence)


class TestA2Properties:
    @FAST
    @given(small_system(), st.lists(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        min_size=1, max_size=5))
    def test_all_properties_on_random_runs(self, sys_params, times):
        sizes, seed = sys_params
        system = build_system(SystemSpec(protocol="a2", group_sizes=sizes),
                              seed=seed)
        for i, time in enumerate(times):
            sender = system.topology.processes[i % len(
                system.topology.processes)]
            system.cast_at(time, sender)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology)

    @FAST
    @given(small_system(), st.lists(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        min_size=1, max_size=5))
    def test_quiescence_on_random_runs(self, sys_params, times):
        """Prop A.9: the event queue always drains (enforced by
        run_quiescent — a livelock would trip the event budget)."""
        sizes, seed = sys_params
        system = build_system(SystemSpec(protocol="a2", group_sizes=sizes),
                              seed=seed)
        for i, time in enumerate(times):
            system.cast_at(time, system.topology.processes[0])
        system.run_quiescent(max_events=2_000_000)

    @SLOW
    @given(st.integers(min_value=0, max_value=5_000), st.data())
    def test_properties_under_random_minority_crashes(self, seed, data):
        topology = Topology([3, 3])
        crashes = {}
        for gid in (0, 1):
            if data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(topology.members(gid)))
                crashes[victim] = data.draw(
                    st.floats(min_value=0.1, max_value=15.0,
                              allow_nan=False))
        schedule = CrashSchedule(crashes)
        system = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                              seed=seed, crashes=schedule)
        for t in (0.0, 5.0):
            sender = data.draw(st.sampled_from(system.topology.processes))
            system.cast_at(t, sender)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology, schedule)


class TestBaselineProperties:
    @FAST
    @given(st.integers(min_value=0, max_value=2_000), st.data())
    def test_skeen_random_runs(self, seed, data):
        plans = data.draw(casts(2, max_casts=4))
        system = build_system(SystemSpec(protocol="skeen", group_sizes=[2, 2]),
                              seed=seed)
        for time, sender_gid, dest in plans:
            sender = system.topology.members(sender_gid)[0]
            system.cast_at(time, sender, dest)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology)

    @FAST
    @given(st.integers(min_value=0, max_value=2_000), st.data())
    def test_ring_random_runs(self, seed, data):
        plans = data.draw(casts(3, max_casts=4))
        system = build_system(
            SystemSpec(protocol="ring", group_sizes=[2, 2, 2]),
            seed=seed)
        for time, sender_gid, dest in plans:
            sender = system.topology.members(sender_gid)[0]
            system.cast_at(time, sender, dest)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology)

    @FAST
    @given(st.integers(min_value=0, max_value=2_000), st.data())
    def test_global_random_runs(self, seed, data):
        plans = data.draw(casts(2, max_casts=3))
        system = build_system(
            SystemSpec(protocol="global", group_sizes=[2, 2]),
            seed=seed)
        for time, sender_gid, dest in plans:
            sender = system.topology.members(sender_gid)[0]
            system.cast_at(time, sender, dest)
        system.run_quiescent(max_events=2_000_000)
        check_all(system.log, system.topology)
