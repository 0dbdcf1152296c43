"""Unit tests for the lossy-channel decision engine and the transport.

The layers beneath the adversary grids: :class:`ChannelModel`'s draw
discipline and burst chain, the corrupt injector's frame-word
semantics, the reliable transport's zero-loss behaviour, the
stabilization checker's violation paths, and kernel selection when a
transport is mounted.
"""

import random
from types import SimpleNamespace

import pytest

from repro.adversary.injectors import apply_adversary
from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.checkers.properties import check_all
from repro.checkers.stabilization import (
    StabilizationViolation,
    StreamingStabilizationChecker,
    check_stabilization,
)
from repro.net.channel import ChannelModel
from repro.net.message import Message
from repro.runtime.builder import SystemSpec, build_system
from repro.sim.kernel import Simulator
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


def _adversary(kind: str, **params) -> AdversarySpec:
    return AdversarySpec(
        name=f"unit-{kind}",
        injectors=(InjectorSpec(kind=kind,
                                params=tuple(params.items())),),
    )


class TestChannelModel:
    def test_probability_must_be_in_unit_interval(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="probability"):
            ChannelModel(rng, 0.0)
        with pytest.raises(ValueError, match="probability"):
            ChannelModel(rng, 1.5)

    @pytest.mark.parametrize("knob", ["burst_probability", "burst_enter",
                                      "burst_exit"])
    def test_burst_knobs_must_be_in_unit_interval(self, knob):
        with pytest.raises(ValueError, match=knob):
            ChannelModel(random.Random(0), 0.5, **{knob: 1.01})

    def test_burst_enter_without_burst_probability_rejected(self):
        with pytest.raises(ValueError, match="no-op"):
            ChannelModel(random.Random(0), 0.5, burst_enter=0.3)

    def test_exactly_two_draws_per_roll_regardless_of_config(self):
        """Turning bursts on/off must not realign later decisions:
        every configuration consumes exactly two draws per roll."""
        configs = [
            dict(),
            dict(burst_probability=0.9, burst_enter=0.3, burst_exit=0.1),
            dict(burst_probability=0.5, burst_enter=1.0, burst_exit=0.0),
        ]
        leftovers = []
        for config in configs:
            rng = random.Random(1234)
            model = ChannelModel(rng, 0.5, **config)
            for i in range(100):
                model.roll(i % 3, (i + 1) % 3)
            leftovers.append(rng.random())
        assert len(set(leftovers)) == 1, \
            "configs consumed different numbers of draws"

    def test_certain_fault_always_fires(self):
        model = ChannelModel(random.Random(7), 1.0)
        assert all(model.roll(0, 1)[0] for _ in range(50))

    def test_default_chain_never_enters_burst(self):
        model = ChannelModel(random.Random(7), 0.5)
        for _ in range(200):
            model.roll(0, 1)
        assert not model.in_burst(0, 1)

    def test_sticky_burst_entered_and_held_per_link(self):
        """burst_enter=1, burst_exit=0: the first roll drags the link
        into the bad state forever — and only that link."""
        model = ChannelModel(random.Random(7), 0.01,
                             burst_probability=1.0,
                             burst_enter=1.0, burst_exit=0.0)
        model.roll(0, 1)
        for _ in range(20):
            fault, _ = model.roll(0, 1)
            assert fault  # bad state faults with burst_probability=1
        assert model.in_burst(0, 1)
        assert not model.in_burst(1, 0)

    def test_burst_exit_leaves_the_bad_state(self):
        model = ChannelModel(random.Random(7), 0.01,
                             burst_probability=1.0,
                             burst_enter=1.0, burst_exit=1.0)
        model.roll(0, 1)  # enters on the transition draw...
        model.roll(0, 1)  # ...and exits on the next one
        assert not model.in_burst(0, 1)


class TestMemorylessDecide:
    def test_inlined_decision_matches_roll_draw_for_draw(self):
        """With ``burst_enter == 0`` the lossy injectors inline the
        channel's two draws; ``ChannelModel.roll`` on the same stream
        is the reference — same verdicts, same magnitudes, same stream
        position afterwards."""
        from repro.sim.rng import RngRegistry

        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        applied = apply_adversary(system,
                                  _adversary("drop", probability=0.3))
        injector = applied.injectors[0]
        rng = RngRegistry(1).stream("adversary:drop:0")
        reference = ChannelModel(rng, 0.3)
        msg = Message(0, 2, "amcast.ts", {}, True, 0, 0.0, None)
        faults = 0
        for _ in range(300):
            fault, u = reference.roll(0, 2)
            assert injector._decide(msg) == (u / 0.3 if fault else None)
            faults += fault
        assert 0 < faults < 300
        assert injector.rng.random() == rng.random()


class TestCorruptInjectorSemantics:
    def _system_with_corrupt(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        applied = apply_adversary(system,
                                  _adversary("corrupt", probability=1.0))
        return system, applied.injectors[0]

    def test_sequenced_frame_checksum_damaged_seq_intact(self):
        """Corruption flips checksum bits only: the sequence number
        survives, so the receiving transport sees a checksum mismatch
        on the right link slot — detectable, repairable damage."""
        _, injector = self._system_with_corrupt()
        msg = Message(0, 2, "amcast.ts", {}, True, 0, 0.0, (5 << 8) | 0xAB)
        assert injector._on_delivery(msg) is True  # delivered, damaged
        assert msg.wire != (5 << 8) | 0xAB
        assert msg.wire >> 8 == 5
        assert msg.wire & 0xFF != 0xAB

    def test_unsequenced_copy_is_dropped_outright(self):
        """No frame word means no CRC to damage: the link eats it."""
        _, injector = self._system_with_corrupt()
        msg = Message(0, 2, "amcast.ts", {}, True, 0, 0.0, None)
        assert injector._on_delivery(msg) is False
        assert msg.wire is None


class TestZeroLossTransport:
    def test_clean_run_costs_acks_only(self):
        """Without faults the transport never retransmits, never sees
        a frame ahead of a gap, never suppresses — it sequences, acks,
        and drains."""
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[3, 3],
                       transport="reliable"),
            seed=3)
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"),
            rate=1.5, duration=15.0, destinations=uniform_k_groups(2),
        )
        schedule_workload(system, plans)
        system.run_quiescent()

        stats = system.transport.stats
        assert stats.wrapped_sends > 0
        assert stats.data_copies > 0
        assert stats.retransmits == 0
        assert stats.dup_suppressed == 0
        assert stats.corrupt_detected == 0
        assert stats.out_of_order == 0
        assert stats.acks_sent > 0
        assert stats.released == stats.data_copies
        assert system.transport.outstanding() == {"unacked": {},
                                                  "out_of_order": {}}
        check_all(system.log, system.topology)


class TestStabilizationCheckerViolations:
    def test_pending_events_are_a_violation(self):
        sim = Simulator()
        sim.schedule_action(10.0, lambda: None)
        system = SimpleNamespace(sim=sim)
        with pytest.raises(StabilizationViolation, match="quiesce"):
            check_stabilization(system)

    def test_undrained_transport_is_a_violation(self):
        sim = Simulator()
        transport = SimpleNamespace(
            outstanding=lambda: {"unacked": {(0, 1): 3},
                                 "out_of_order": {}})
        system = SimpleNamespace(sim=sim, transport=transport)
        with pytest.raises(StabilizationViolation, match="did not[\\s]+drain"):
            check_stabilization(system)

    def test_fault_past_the_horizon_is_a_violation(self):
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       transport="reliable"),
            seed=1)
        applied = apply_adversary(
            system, _adversary("drop", probability=0.2, until=5.0))
        system.applied_adversary = applied
        system.run_quiescent()  # nothing scheduled: quiesces clean
        applied.injectors[0].last_fault_time = 6.0  # claim a late fault
        with pytest.raises(StabilizationViolation, match="horizon"):
            check_stabilization(system)

    def test_clean_run_reports_horizon_and_settling(self):
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       transport="reliable"),
            seed=1)
        applied = apply_adversary(
            system, _adversary("drop", probability=0.2, until=5.0))
        system.applied_adversary = applied
        system.stabilization_checker = (
            StreamingStabilizationChecker().attach(system))
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"),
            rate=1.0, duration=10.0, destinations=uniform_k_groups(2),
        )
        schedule_workload(system, plans)
        system.run_quiescent()
        report = check_stabilization(system)
        assert report.stabilized
        assert report.horizon == 5.0
        assert report.last_delivery_at is not None
        assert report.settle_after_horizon is not None
        assert report.settle_after_horizon >= 0.0


class TestLossyNetCampaign:
    def test_lossy_net_scenarios_mount_the_transport(self):
        from repro.campaigns.library import get_campaign

        campaign = get_campaign("lossy-net")
        scenarios = campaign.scenarios
        assert len(scenarios) >= 6
        for scenario in scenarios:
            assert scenario.transport == "reliable"
            assert "properties" in scenario.checkers
            assert "stabilization" in scenario.checkers
            assert scenario.adversary.startswith("lossy-")
