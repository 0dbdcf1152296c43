"""Integration tests for Algorithm A2 (atomic broadcast, degree 1)."""

import pytest

from repro.adversary.spec import get_adversary
from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import ScenarioSpec, WorkloadSpec
from repro.checkers.properties import check_all
from repro.checkers.quiescence import check_quiescence
from repro.core import abcast
from repro.failure.schedule import CrashSchedule
from repro.net.topology import LatencyModel
from repro.runtime.builder import SystemSpec, build_system
from repro.tools import render_waits
from repro.workload.generators import poisson_workload, schedule_workload


class TestBasicDelivery:
    def test_cold_broadcast_delivers_everywhere(self):
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]), seed=1)
        m = s.cast(sender=0)
        s.run_quiescent()
        for pid in range(6):
            assert s.log.sequence(pid) == [m.mid]

    def test_cold_broadcast_degree_two(self):
        """Theorem 5.2: a broadcast into a quiescent system pays 2."""
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]), seed=1)
        m = s.cast(sender=0)
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 2

    def test_warm_broadcast_degree_one(self):
        """Theorem 5.1: a broadcast riding an active round pays 1."""
        s = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3],
                       protocol_kwargs=(("propose_delay", 0.05),)),
            seed=1)
        s.start_rounds()
        m = s.cast_at(0.01, 0)
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 1

    def test_warm_broadcast_from_each_group(self):
        s = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3, 3],
                       protocol_kwargs=(("propose_delay", 0.05),)),
            seed=1)
        s.start_rounds()
        a = s.cast_at(0.01, 0)
        b = s.cast_at(0.01, 3)
        c = s.cast_at(0.01, 6)
        s.run_quiescent()
        for m in (a, b, c):
            assert s.meter.latency_degree(m.mid) == 1
        check_all(s.log, s.topology)

    def test_multicast_destinations_rejected(self):
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]), seed=1)
        with pytest.raises(ValueError):
            s.cast(sender=0, dest_groups=(0,))

    def test_properties_hold_failure_free(self):
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3, 3]),
                         seed=5)
        for i, sender in enumerate([0, 3, 6, 1, 4]):
            s.cast_at(0.5 * i, sender)
        s.run_quiescent()
        check_all(s.log, s.topology)


class TestQuiescence:
    def test_system_quiesces_after_finite_workload(self):
        """Proposition A.9: finite casts => processes go silent."""
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                         seed=1, trace=True)
        for i in range(3):
            s.cast_at(float(i), 0)
        report = check_quiescence(s.sim, s.network.trace)
        assert report.quiescent
        assert report.last_send_at is not None

    def test_restart_after_quiescence(self):
        """Prediction mistakes are tolerated: a late broadcast still
        delivers (paper Section 5.2, Barrier restart)."""
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]), seed=1)
        a = s.cast(sender=0)
        b = s.cast_at(100.0, 3)  # long after the system went quiet
        s.run_quiescent()
        check_all(s.log, s.topology)
        assert s.meter.latency_degree(b.mid) == 2

    def test_empty_trailing_round_then_stop(self):
        """After a useful round the algorithm runs exactly one more
        (empty) round, then stops (lines 21-23)."""
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]), seed=1)
        s.cast(sender=0)
        s.run_quiescent()
        endpoint = s.endpoints[0]
        assert endpoint.useful_rounds == 1
        assert endpoint.rounds_executed == endpoint.useful_rounds + 1

    def test_sustained_traffic_keeps_rounds_useful(self):
        """Section 5.3: broadcasts faster than a round keep every round
        useful and the algorithm never reactive."""
        s = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       latency=LatencyModel.wan(inter_ms=100.0),
                       protocol_kwargs=(("propose_delay", 5.0),)),
            seed=3)
        plans = poisson_workload(
            s.topology, s.rng.stream("wl"), rate=0.05, duration=2000.0,
        )  # 50 msg/s in ms units... 0.05/ms = 50/s with 100 ms rounds
        messages = schedule_workload(s, plans)
        s.run_quiescent()
        check_all(s.log, s.topology)
        endpoint = s.endpoints[0]
        useful_fraction = endpoint.useful_rounds / endpoint.rounds_executed
        assert useful_fraction > 0.8


class TestLatencyUnderLoad:
    """The paper's latency degree 1 with casts in flight, not just for
    one hand-placed cast: (3,3,3), Poisson 100 x 30 to all groups (the
    ``a2_bcast`` plan / 10), unit inter-group links."""

    @staticmethod
    def _run(seed, mid_run=None):
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3, 3]),
                         seed=seed)
        s.start_rounds()
        schedule_workload(s, poisson_workload(
            s.topology, s.rng.stream("wl"), rate=100.0, duration=30.0))
        waits = None
        if mid_run is not None:
            s.run(until=mid_run)
            waits = render_waits(s.endpoints)
        s.run_quiescent()
        check_all(s.log, s.topology)
        records = s.meter.records()
        worst = sorted(r.worst_delivery_latency for r in records)
        at_degree_one = sum(r.latency_degree <= 1 for r in records)
        return (s, worst[len(worst) // 2], at_degree_one / len(records),
                s.network.stats.by_kind["abc.bundle"], waits)

    @pytest.mark.parametrize("seed", [42, 1007])
    def test_half_of_all_casts_deliver_after_one_hop(self, seed, monkeypatch):
        """One round at a time every cast waits ½ round for the next
        proposal: p50 1.5δ and *no* cast at degree 1.  With the second
        round half a round behind the first the wait halves — for at
        most twice the bundle copies."""
        s, p50, at_degree_one, bundle_msgs, waits = self._run(seed, 15.25)
        # Mid-run, every endpoint names the round its next delivery
        # waits on and the bundles that round still misses.
        assert waits.count("waits on the bundle of group(s)") == 9, waits
        assert all(ep.blocked_on() is None for ep in s.endpoints.values())
        assert p50 <= 1.30, (
            f"p50 worst-destination latency {p50:.3f} > 1.30; at "
            f"t=15.25:\n{waits}")
        assert at_degree_one >= 0.45, (
            f"only {at_degree_one:.1%} of casts at latency degree <= 1; "
            f"at t=15.25:\n{waits}")
        assert max(d for d in s.meter.degrees().values()
                   if d is not None) <= 3

        monkeypatch.setattr(abcast, "ROUNDS_IN_FLIGHT", 1)
        _, one_p50, one_at_degree_one, one_bundle_msgs, _ = self._run(seed)
        assert one_p50 > 1.45 and one_at_degree_one < 0.01
        assert bundle_msgs <= 2.05 * one_bundle_msgs


class TestOverlapUnderAdversity:
    """Two rounds in flight against reordering, crashes and the
    bundling window: the invariants at every kernel-event boundary."""

    @staticmethod
    def _step_with_invariants(system):
        while system.sim.pending_events:
            system.run(max_events=1)
            for endpoint in system.endpoints.values():
                if not endpoint.process.crashed:
                    endpoint.inv()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delay_reorder_adversary(self, seed):
        spec = ScenarioSpec(
            name="a2-overlap-reorder", protocol="a2", group_sizes=(3, 3, 3),
            workload=WorkloadSpec(kind="poisson", rate=60.0, duration=6.0),
            start_rounds=True, checkers=("properties",))
        system, _, applied = build_scenario_system(
            spec, seed, adversary=get_adversary("delay-reorder"))
        self._step_with_invariants(system)
        assert applied.total_faults > 0
        check_all(system.log, system.topology)
        sequences = {tuple(system.log.sequence(p)) for p in range(9)}
        assert len(sequences) == 1 and len(sequences.pop()) > 250

    @pytest.mark.parametrize("propose_delay", [0.05, 0.3])
    def test_bundling_window_composes(self, propose_delay):
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3, 3],
                       protocol_kwargs=(("propose_delay", propose_delay),)),
            seed=4, trace=True)
        system.start_rounds()
        schedule_workload(system, poisson_workload(
            system.topology, system.rng.stream("wl"), rate=60.0,
            duration=6.0))
        self._step_with_invariants(system)
        assert check_quiescence(system.sim, system.network.trace).quiescent
        check_all(system.log, system.topology)
        # The window delays proposals; it does not stop the overlap.
        endpoint = system.endpoints[0]
        assert endpoint.rounds_executed > 1.5 * 6.0 / (1 + propose_delay)

    @staticmethod
    def _loaded_with_detector(detector, crashes=None):
        knobs = (dict(heartbeat_period=0.5, heartbeat_timeout=2.0,
                      heartbeat_horizon=40.0)
                 if detector == "heartbeat" else dict(detector_delay=1.0))
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3, 3],
                       detector=detector,
                       protocol_kwargs=(("retry_timeout", 3.0),), **knobs),
            seed=5, crashes=crashes)
        system.start_rounds()
        # p0 — group 0's ballot-0 leader, the one that will crash —
        # casts nothing, so every cast must be delivered (validity).
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"), rate=60.0,
            duration=8.0, senders=list(range(1, 9)))
        return system, [
            system.cast_at(time, sender)
            for time, sender in zip(plans.times, plans.senders)]

    @pytest.mark.parametrize("detector", ["perfect", "heartbeat"])
    def test_leader_crash_with_two_rounds_in_flight(self, detector):
        """The leader dies holding the only copy of both survivors'
        proposals for round X while round X-1 — decided, bundles still
        under way — is in flight too.  (A process never has two
        *undecided* instances: it proposes X knowing X-1's decision.)
        A new leader must decide X and both rounds must complete."""
        def stuck(endpoint):
            return (endpoint.prop_k == endpoint.k + 2 and not
                    endpoint.consensus.decided(endpoint.prop_k - 1))

        dry, _ = self._loaded_with_detector(detector)
        while not (dry.sim.now > 3.0 and stuck(dry.endpoints[1])
                   and stuck(dry.endpoints[2])):
            dry.run(max_events=1)
        crash_at = dry.sim.now + 0.0005  # before the forwards land
        round_x = dry.endpoints[1].prop_k - 1

        crashes = CrashSchedule({0: crash_at})
        system, casts = self._loaded_with_detector(detector, crashes)
        system.run(until=crash_at + 0.0001)
        for pid in (1, 2):
            endpoint = system.endpoints[pid]
            assert endpoint.k == round_x - 1 and stuck(endpoint)
            assert endpoint.blocked_on() == abcast.RoundWait(
                round_x - 1, True, (1, 2))
        self._step_with_invariants(system)
        check_all(system.log, system.topology, crashes)
        assert system.network.stats.by_kind["abc.cons.prepare"] > 0
        for pid in range(1, 9):
            assert system.endpoints[pid].k > round_x
            assert len(system.log.sequence(pid)) == len(casts)


class TestFaultTolerance:
    def test_caster_crash_after_cast(self):
        crashes = CrashSchedule({0: 0.5})
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                         seed=1, crashes=crashes)
        m = s.cast(sender=0)
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)
        for pid in (1, 2, 3, 4, 5):
            assert m.mid in s.log.sequence(pid)

    def test_minority_crashes(self):
        crashes = CrashSchedule({1: 1.0, 4: 2.0})
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                         seed=2, crashes=crashes)
        for i in range(4):
            s.cast_at(float(i), (0, 3)[i % 2])
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)

    def test_consensus_leader_crash(self):
        crashes = CrashSchedule({0: 0.8, 3: 1.2})
        s = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                         seed=8, crashes=crashes)
        s.cast(sender=1)
        s.cast_at(2.0, 4)
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)

    def test_wan_with_crashes_and_traffic(self):
        crashes = CrashSchedule({2: 150.0, 8: 250.0})
        s = build_system(
            SystemSpec(protocol="a2", group_sizes=[3, 3, 3],
                       latency=LatencyModel.wan(),
                       protocol_kwargs=(("propose_delay", 5.0),)),
            seed=21, crashes=crashes)
        plans = poisson_workload(
            s.topology, s.rng.stream("wl"), rate=0.01, duration=600.0,
        )
        schedule_workload(s, plans)
        s.run_quiescent()
        check_all(s.log, s.topology, crashes)


class TestNonGenuineWrapper:
    def test_multicast_over_broadcast_filters(self):
        s = build_system(
            SystemSpec(protocol="nongenuine", group_sizes=[2, 2, 2]),
            seed=1)
        m = s.cast(sender=0, dest_groups=(0, 1))
        s.run_quiescent()
        for pid in (0, 1, 2, 3):
            assert s.log.sequence(pid) == [m.mid]
        for pid in (4, 5):
            assert s.log.sequence(pid) == []

    def test_warm_nongenuine_beats_genuine_latency(self):
        """The introduction's tradeoff: degree 1 vs A1's 2 — paid for
        with system-wide message complexity."""
        s = build_system(
            SystemSpec(protocol="nongenuine", group_sizes=[2, 2, 2],
                       protocol_kwargs=(("propose_delay", 0.05),)),
            seed=1)
        s.start_rounds()
        m = s.cast_at(0.01, 0, (0, 1))
        s.run_quiescent()
        assert s.meter.latency_degree(m.mid) == 1

    def test_properties_hold(self):
        s = build_system(
            SystemSpec(protocol="nongenuine", group_sizes=[2, 2, 2]),
            seed=6)
        s.cast(sender=0, dest_groups=(0, 1))
        s.cast(sender=2, dest_groups=(1, 2))
        s.cast_at(1.0, 4, (0, 2))
        s.run_quiescent()
        check_all(s.log, s.topology)
