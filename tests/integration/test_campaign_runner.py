"""Integration tests for the campaign engine.

The load-bearing guarantee: a campaign executed over a multiprocessing
pool produces bit-identical per-seed metrics to the same campaign run
serially, because every task rebuilds its simulation from the (spec,
seed) pair alone.  These tests pin that, plus the artefact format and
the built-in campaign library.
"""

import dataclasses
import json

import pytest

from repro.campaigns import (
    CAMPAIGNS,
    Campaign,
    CampaignRunner,
    CrashSpec,
    DestinationSpec,
    ScenarioSpec,
    WorkloadSpec,
    get_campaign,
    matrix,
    run_scenario_seed,
    verify_determinism,
)
from repro.campaigns.runner import validate_spec
from repro.runtime.runner import Aggregate


def small_campaign(seeds=(1, 2)) -> Campaign:
    base = ScenarioSpec(
        name="small",
        group_sizes=(2, 2),
        workload=WorkloadSpec(
            kind="poisson", rate=0.5, duration=10.0,
            destinations=DestinationSpec(kind="uniform-k", k=2),
        ),
        seeds=seeds,
        checkers=("properties", "genuineness"),
    )
    return Campaign(name="small",
                    scenarios=matrix(base, {"protocol": ["a1", "skeen"]}))


class TestSerialParallelIdentity:
    def test_per_seed_metrics_bit_identical(self):
        campaign = small_campaign()
        serial = CampaignRunner(campaign, jobs=1).run()
        parallel = CampaignRunner(campaign, jobs=4).run()
        verify_determinism(parallel, serial)
        # Not merely "close": the float bit patterns agree exactly.
        assert serial.per_seed_metrics() == parallel.per_seed_metrics()

    def test_repeated_serial_runs_agree(self):
        campaign = small_campaign(seeds=(5,))
        a = CampaignRunner(campaign).run()
        b = CampaignRunner(campaign).run()
        assert a.per_seed_metrics() == b.per_seed_metrics()

    def test_verify_determinism_reports_divergence(self):
        campaign = small_campaign(seeds=(1,))
        a = CampaignRunner(campaign).run()
        b = CampaignRunner(campaign).run()
        scenario = campaign.scenarios[0].name
        b.result(scenario, 1).metrics["casts"] += 1.0
        with pytest.raises(AssertionError, match="diverged"):
            verify_determinism(a, b)


class TestRunnerMechanics:
    def test_results_keyed_by_scenario_and_seed(self):
        result = CampaignRunner(small_campaign(seeds=(1, 2))).run()
        run = result.result("small/protocol=a1", 2)
        assert run.seed == 2
        assert run.scenario == "small/protocol=a1"
        assert run.ok

    def test_aggregates_reuse_runtime_aggregate(self):
        result = CampaignRunner(small_campaign(seeds=(1, 2, 3))).run()
        aggs = result.aggregates("small/protocol=a1")
        assert isinstance(aggs["casts"], Aggregate)
        assert aggs["casts"].n == 3
        assert aggs["casts"].minimum <= aggs["casts"].mean \
            <= aggs["casts"].maximum

    def test_checker_failures_are_recorded_not_raised(self):
        # Genuineness is violated by construction when multicasting
        # through a broadcast-based protocol: bystander groups hear
        # every message.
        spec = ScenarioSpec(
            name="nongenuine-by-design",
            protocol="nongenuine",
            group_sizes=(2, 2, 2),
            workload=WorkloadSpec(
                kind="periodic", period=2.0, count=4,
                destinations=DestinationSpec(kind="fixed", groups=(0, 1)),
            ),
            checkers=("properties", "genuineness"),
            protocol_kwargs=(("propose_delay", 0.05),),
            start_rounds=True,
        )
        result = run_scenario_seed(spec, 1)
        assert result.checkers["properties"] == "ok"
        assert result.checkers["genuineness"].startswith("FAIL")
        assert not result.ok

    def test_unknown_checker_rejected(self):
        spec = dataclasses.replace(small_campaign().scenarios[0],
                                   checkers=("vibes",))
        with pytest.raises(ValueError, match="unknown checker"):
            run_scenario_seed(spec, 1)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            CampaignRunner(small_campaign(), jobs=0)

    def test_message_heartbeat_without_horizon_rejected(self):
        """Fail fast: message-mode heartbeats can never quiesce."""
        spec = ScenarioSpec(name="hb", detector="heartbeat")
        with pytest.raises(ValueError, match="set heartbeat_horizon past "
                                             "the workload tail"):
            run_scenario_seed(spec, 1)
        # There is no horizon-free heartbeat detector to fall back on.
        gone = dataclasses.replace(spec, detector="heartbeat-elided")
        with pytest.raises(ValueError) as excinfo:
            validate_spec(gone)
        message = str(excinfo.value)
        assert "scenario 'hb'" in message
        assert "unknown detector 'heartbeat-elided'" in message
        assert "['eventually-perfect', 'heartbeat', 'perfect']" in message

    def test_unknown_metric_rejected_before_running(self):
        spec = dataclasses.replace(small_campaign().scenarios[0],
                                   metrics=("degress",))
        with pytest.raises(ValueError, match="unknown metric"):
            run_scenario_seed(spec, 1)

    def test_duplicate_seeds_rejected(self):
        campaign = small_campaign(seeds=(1, 1))
        with pytest.raises(ValueError, match="repeats seeds"):
            CampaignRunner(campaign).run()

    def test_pool_fallback_reports_effective_jobs(self, monkeypatch):
        """A degraded run must not claim N workers in its artefact."""
        runner = CampaignRunner(small_campaign(seeds=(1,)), jobs=4)
        monkeypatch.setattr(CampaignRunner, "_run_pool",
                            lambda self, tasks: None)
        result = runner.run()
        assert result.jobs == 1
        assert result.jobs_requested == 4
        assert result.to_json()["jobs"] == 1
        assert result.to_json()["jobs_requested"] == 4

    def test_duplicate_scenario_names_rejected(self):
        spec = small_campaign().scenarios[0]
        with pytest.raises(ValueError, match="duplicate scenario names"):
            Campaign(name="dup", scenarios=[spec, spec])

    def test_crash_scenarios_derive_schedule_from_seed(self):
        spec = ScenarioSpec(
            name="crashy",
            group_sizes=(3, 3),
            workload=WorkloadSpec(kind="periodic", period=2.0, count=6),
            crashes=CrashSpec(kind="random-minority", window=10.0,
                              probability=1.0),
        )
        a = run_scenario_seed(spec, 3)
        b = run_scenario_seed(spec, 3)
        assert a.metrics == b.metrics
        assert a.checkers == b.checkers == {"properties": "ok"}


class TestArtifacts:
    def test_json_artifact_shape(self, tmp_path):
        result = CampaignRunner(small_campaign(seeds=(1, 2))).run()
        path = result.write(str(tmp_path))
        data = json.loads((tmp_path / "CAMPAIGN_small.json").read_text())
        assert path.endswith("CAMPAIGN_small.json")
        assert data["campaign"] == "small"
        assert data["task_count"] == 4
        assert data["all_checkers_ok"] is True
        scenario = data["scenarios"]["small/protocol=a1"]
        assert scenario["spec"]["protocol"] == "a1"
        assert set(scenario["seeds"]) == {"1", "2"}
        assert scenario["aggregates"]["casts"]["n"] == 2

    def test_markdown_summary_lists_every_scenario(self):
        result = CampaignRunner(small_campaign(seeds=(1,))).run()
        md = result.markdown_summary()
        assert "| small/protocol=a1 |" in md
        assert "| small/protocol=skeen |" in md
        assert "| scenario |" in md


class TestLibrary:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_builders_expand(self, name):
        campaign = get_campaign(name, seeds=(1,))
        if name == "fd-overhead":
            # Two detector columns (oracle, heartbeat) × A1 and A2.
            assert len(campaign.scenarios) == 4
        else:
            assert len(campaign.scenarios) >= 6
        assert campaign.task_count == len(campaign.scenarios)

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_seeds_override_every_scenario(self, name):
        """``get_campaign(name, seeds=)`` is the one way to set seeds;
        the CLI's ``--seeds`` goes through it."""
        campaign = get_campaign(name, seeds=(7, 8))
        assert {spec.seeds for spec in campaign.scenarios} == {(7, 8)}
        assert campaign.task_count == 2 * len(campaign.scenarios)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            get_campaign("wan-storm", seeds=())

    def test_unknown_campaign_rejected(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            get_campaign("nope")

    def test_cross_protocol_has_at_least_eight_scenarios(self):
        assert len(get_campaign("cross-protocol").scenarios) >= 8

    def test_wan_storm_single_seed_runs_green(self):
        campaign = get_campaign("wan-storm", seeds=(1,))
        campaign.scenarios = campaign.scenarios[:2]
        result = CampaignRunner(campaign, jobs=2).run()
        assert result.all_checkers_ok

    @pytest.mark.parametrize("half, perfect_msgs, heartbeat_msgs", [
        ("fd/", 1892, 2264),
        ("fd-bcast/", 1544, 1916),
    ], ids=["fd", "fd-bcast"])
    def test_fd_overhead_heartbeat_matches_perfect_on_protocol_metrics(
            self, half, perfect_msgs, heartbeat_msgs):
        """Crash-free heartbeats change traffic/events, nothing else."""
        campaign = get_campaign("fd-overhead", seeds=(1,))
        runs = {
            s.detector: run_scenario_seed(s, 1)
            for s in campaign.scenarios if s.name.startswith(half)
        }
        assert set(runs) == {"perfect", "heartbeat"}
        perfect, hb = runs["perfect"], runs["heartbeat"]
        assert perfect.ok and hb.ok
        for metric in ("casts", "deliveries", "degree_mean",
                       "latency_worst_mean"):
            assert hb.metrics[metric] == perfect.metrics[metric], metric
        # The whole point: heartbeats pay for their copies.
        assert perfect.metrics["network_messages"] == perfect_msgs
        assert hb.metrics["network_messages"] == heartbeat_msgs
        assert hb.metrics["kernel_events"] > \
            perfect.metrics["kernel_events"]


class TestWallClocks:
    """Metrics are simulated quantities only; host time is kept on
    :attr:`RunResult.wall_seconds` and never compared."""

    SPEC = ScenarioSpec(
        name="timed",
        group_sizes=(2, 2),
        workload=WorkloadSpec(kind="periodic", period=2.0, count=5,
                              destinations=DestinationSpec(
                                  kind="uniform-k", k=2)),
        metrics=("core", "latency", "degrees", "traffic", "rounds"),
        seeds=(1,),
    )

    def test_wall_clock_is_outside_the_determinism_key(self):
        campaign = Campaign(name="timed", scenarios=[self.SPEC])
        a = CampaignRunner(campaign).run()
        b = CampaignRunner(campaign).run()
        for result in (a, b):
            run = result.result("timed", 1)
            assert run.wall_seconds > 0.0
            assert not [key for key in run.metrics
                        if "wall" in key or key.startswith("phase_")]
        verify_determinism(a, b)
        assert a.per_seed_metrics() == b.per_seed_metrics()

    def test_phases_is_not_a_metric_extractor(self):
        """Refused before the run, like any other unknown name."""
        spec = dataclasses.replace(self.SPEC, metrics=("core", "phases"))
        with pytest.raises(ValueError, match=r"unknown metric "
                                             r"extractor\(s\) \['phases'\]"):
            run_scenario_seed(spec, 1)
