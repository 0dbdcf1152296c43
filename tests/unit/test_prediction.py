"""Unit tests for the quiescence-prediction strategies."""

import pytest

from repro.core.prediction import (
    LingerPredictor,
    PaperPredictor,
    RateAdaptivePredictor,
)
from repro.runtime.builder import SystemSpec, build_system


class TestPaperPredictor:
    def test_continues_after_useful_round(self):
        assert PaperPredictor().should_continue(delivered=True, now=0.0)

    def test_stops_after_empty_round(self):
        assert not PaperPredictor().should_continue(delivered=False, now=0.0)


class TestLingerPredictor:
    def test_tolerates_streak_up_to_limit(self):
        p = LingerPredictor(linger_rounds=2)
        assert p.should_continue(False, 0.0)   # streak 1
        assert p.should_continue(False, 1.0)   # streak 2
        assert not p.should_continue(False, 2.0)  # streak 3: stop

    def test_useful_round_resets_streak(self):
        p = LingerPredictor(linger_rounds=1)
        assert p.should_continue(False, 0.0)
        assert p.should_continue(True, 1.0)
        assert p.should_continue(False, 2.0)  # streak restarted

    def test_zero_linger_equals_paper_rule(self):
        p = LingerPredictor(linger_rounds=0)
        assert p.should_continue(True, 0.0)
        assert not p.should_continue(False, 1.0)

    def test_negative_linger_rejected(self):
        with pytest.raises(ValueError):
            LingerPredictor(linger_rounds=-1)


class TestRateAdaptivePredictor:
    def test_no_history_falls_back_to_paper_rule(self):
        p = RateAdaptivePredictor()
        assert not p.should_continue(False, 10.0)
        assert p.should_continue(True, 10.0)

    def test_keeps_running_while_next_message_due(self):
        p = RateAdaptivePredictor(patience=3.0)
        for t in (0.0, 10.0, 20.0):   # steady 10-unit gaps
            p.observe_cast(t)
        # 25 units after the last cast is within 3 * 10 = 30.
        assert p.should_continue(False, 45.0)
        # 35 units after is beyond patience.
        assert not p.should_continue(False, 56.0)

    def test_ewma_adapts_to_faster_traffic(self):
        p = RateAdaptivePredictor(patience=2.0, alpha=1.0)  # newest wins
        p.observe_cast(0.0)
        p.observe_cast(100.0)   # gap estimate: 100
        assert p.should_continue(False, 250.0)
        p.observe_cast(251.0)
        p.observe_cast(252.0)   # gap estimate: 1
        assert not p.should_continue(False, 260.0)

    def test_max_gap_caps_the_estimate(self):
        p = RateAdaptivePredictor(patience=1.0, alpha=1.0, max_gap=5.0)
        p.observe_cast(0.0)
        p.observe_cast(1000.0)  # raw gap 1000, capped to 5
        assert not p.should_continue(False, 1010.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RateAdaptivePredictor(patience=0.0)
        with pytest.raises(ValueError):
            RateAdaptivePredictor(alpha=0.0)
        with pytest.raises(ValueError):
            RateAdaptivePredictor(alpha=1.5)


class TestPredictorIntegration:
    def test_linger_extends_rounds_but_still_quiesces(self):
        """Bounded lingering preserves Proposition A.9."""
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       protocol_kwargs=((
                           "predictor_factory",
                           lambda: LingerPredictor(linger_rounds=4)),)),
            seed=1)
        system.cast(sender=0)
        system.run_quiescent(max_events=500_000)  # must drain
        endpoint = system.endpoints[0]
        # 1 useful round + 4 lingered empty rounds + the final empty
        # round that triggered the stop decision chain.
        assert endpoint.useful_rounds == 1
        assert endpoint.rounds_executed >= 5

    def test_paper_predictor_is_the_default(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)
        system.run_quiescent()
        endpoint = system.endpoints[0]
        assert endpoint.rounds_executed == 2  # useful + one empty

    def test_wakeups_counted_for_cold_casts(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0)
        system.cast_at(100.0, 0)   # after quiescence: one wakeup
        system.run_quiescent()
        caster_group_wakeups = sum(
            system.endpoints[p].wakeups for p in (0, 1))
        assert caster_group_wakeups >= 2  # both cold casts woke group 0

    def test_per_process_predictor_instances(self):
        """The factory must produce one predictor per endpoint."""
        system = build_system(
            SystemSpec(protocol="a2", group_sizes=[2, 2],
                       protocol_kwargs=((
                           "predictor_factory",
                           lambda: LingerPredictor(linger_rounds=1)),)),
            seed=1)
        predictors = {id(ep.predictor) for ep in system.endpoints.values()}
        assert len(predictors) == 4
