"""CLI behaviour: listings, unknown-name exits, the verb table."""

import dataclasses
import json

import pytest

from repro import paper
from repro.campaigns.library import CAMPAIGNS, get_campaign
from repro.cli import VERBS, main


class TestListing:
    def test_list_enumerates_claims_and_campaigns(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for claim in paper.CLAIMS:
            assert claim.id in out
        assert "campaigns" in out
        for name in ("wan-storm", "crash-storm", "zipf-fanout",
                     "cross-protocol", "fd-overhead"):
            assert name in out

    def test_campaign_list_flag(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cross-protocol" in out and "wan-storm" in out

    def test_list_counts_each_campaigns_built_scenarios(self, capsys):
        """The listing reads every campaign off its builder, so a
        description or scenario count can never drift from the grid."""
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in CAMPAIGNS:
            campaign = get_campaign(name)
            line = next(line for line in lines
                        if line.split()[:1] == [name]
                        and "scenarios)" in line)
            assert campaign.description in line
            assert line.endswith(f"({len(campaign.scenarios)} scenarios)")

    def test_list_enumerates_adversaries(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "adversaries" in out
        for name in ("link-skew", "delay-reorder", "partition-spike",
                     "phase-crash", "chaos", "torture"):
            assert name in out


class TestVerbTable:
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_help_exits_0(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"python -m repro.cli {verb}" in out

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_listed(self, verb, capsys):
        assert main(["--list"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.split()[:1] == [verb])
        assert VERBS[verb][1] in line


class TestUnknownNames:
    def test_unknown_verb_exits_2(self, capsys):
        assert main(["no-such-verb"]) == 2
        err = capsys.readouterr().err
        assert "unknown verb(s): no-such-verb" in err
        assert "available:" in err

    def test_removed_profile_verb_is_an_unknown_verb(self, capsys):
        """Host time is the bench tracer's (``bench/measure.py
        --trace``); a script still calling the old ``profile`` verb
        fails loudly instead of running something else."""
        assert main(["profile"]) == 2
        assert "unknown verb(s): profile" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["lossy", "rebalance"])
    def test_folded_verbs_are_unknown_verbs(self, verb, capsys):
        """``campaign lossy-net`` runs the loss sweep, and ``campaign
        rebalance`` / ``torture --campaign rebalance`` the elastic
        grid; the old verbs fail loudly instead of running something
        else."""
        assert main([verb]) == 2
        assert f"unknown verb(s): {verb}" in capsys.readouterr().err

    def test_unknown_claim_prefix_exits_2(self, capsys):
        assert main(["paper", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown claim id prefix(s): nope" in err
        assert "available:" in err and "thm" in err

    def test_unknown_claim_prefix_mixed_with_known_exits_2(self, capsys):
        assert main(["paper", "thm-4.1", "bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert captured.out == ""  # nothing ran

    def test_unknown_campaign_exits_2(self, capsys):
        assert main(["campaign", "no-such-campaign"]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign(s): no-such-campaign" in err
        assert "available:" in err

    def test_bad_seeds_are_usage_errors(self):
        """Exit 2 (usage), never 1 (reserved for checker failures)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "wan-storm", "--seeds", "1,x"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "wan-storm", "--seeds", ","])
        assert excinfo.value.code == 2

    def test_nonpositive_jobs_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "wan-storm", "--jobs", "0"])
        assert excinfo.value.code == 2

    def test_duplicate_seeds_deduplicated(self, tmp_path):
        status = main([
            "campaign", "cross-protocol", "--seeds", "2,2,2",
            "--max-scenarios", "1", "--out", str(tmp_path),
        ])
        assert status == 0
        data = json.loads(
            (tmp_path / "CAMPAIGN_cross-protocol.json").read_text())
        assert data["task_count"] == 1

    def test_nonpositive_max_scenarios_is_usage_error(self):
        """A zero-scenario 'campaign' would write a vacuously green
        artifact; reject it up front."""
        for verb in (["campaign", "wan-storm"], ["torture"]):
            for bad in ("0", "-1"):
                with pytest.raises(SystemExit) as excinfo:
                    main(verb + ["--max-scenarios", bad])
                assert excinfo.value.code == 2


class TestPaperVerb:
    def test_prefix_selects_rows(self, capsys):
        assert main(["paper", "thm-5", "prop-3.3"]) == 0
        rows = [line.split()[0] for line in
                capsys.readouterr().out.splitlines()[4:]]
        assert rows == ["thm-5.1", "thm-5.2", "thm-5.1-vs-4.1",
                        "thm-5.2-vs-4.1", "prop-3.3", "prop-3.3-tight"]

    def test_missed_bound_exits_1_and_names_the_row(self, monkeypatch,
                                                    capsys):
        claims = [claim for claim in paper.CLAIMS
                  if claim.id.startswith("thm-")]
        claims[0] = dataclasses.replace(claims[0], bound=("==", 3))
        monkeypatch.setattr(paper, "CLAIMS", tuple(claims))
        assert main(["paper"]) == 1
        captured = capsys.readouterr()
        line = next(line for line in captured.out.splitlines()
                    if line.startswith(claims[0].id + " "))
        assert line.split()[-1] == "MISS"
        assert f"CLAIM MISSED: {claims[0].id}" in captured.err

    def test_bare_cli_runs_paper(self, monkeypatch, capsys):
        monkeypatch.setattr(paper, "CLAIMS", paper.CLAIMS[:2])
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "thm-4.1" in out and "thm-5.1 " in out


class TestCampaignVerb:
    def test_smoke_campaign_writes_artifacts(self, tmp_path, capsys):
        status = main([
            "campaign", "cross-protocol", "--jobs", "2", "--seeds", "3",
            "--max-scenarios", "2", "--out", str(tmp_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "Campaign `cross-protocol`" in out
        json_path = tmp_path / "CAMPAIGN_cross-protocol.json"
        md_path = tmp_path / "CAMPAIGN_cross-protocol.md"
        assert json_path.exists() and md_path.exists()
        data = json.loads(json_path.read_text())
        assert data["campaign"] == "cross-protocol"
        assert data["jobs"] == 2
        assert data["scenario_count"] == 2
        assert data["all_checkers_ok"] is True
        for scenario in data["scenarios"].values():
            assert set(scenario["seeds"]) == {"3"}
            for seed_result in scenario["seeds"].values():
                assert seed_result["checkers"]
                assert all(v == "ok"
                           for v in seed_result["checkers"].values())

    def test_compare_serial_records_speedup(self, tmp_path):
        status = main([
            "campaign", "zipf-fanout", "--jobs", "2", "--seeds", "1",
            "--max-scenarios", "2", "--out", str(tmp_path),
            "--compare-serial",
        ])
        assert status == 0
        data = json.loads(
            (tmp_path / "CAMPAIGN_zipf-fanout.json").read_text())
        baseline = data["serial_baseline"]
        assert baseline["per_seed_metrics_identical"] is True
        assert baseline["wall_seconds"] > 0
        assert baseline["speedup"] > 0

    def test_fd_overhead_campaign_smoke(self, tmp_path):
        """The detector-axis campaign runs green at smoke size."""
        status = main([
            "campaign", "fd-overhead", "--seeds", "1",
            "--max-scenarios", "3", "--out", str(tmp_path),
        ])
        assert status == 0
        data = json.loads(
            (tmp_path / "CAMPAIGN_fd-overhead.json").read_text())
        assert data["all_checkers_ok"] is True
        detectors = {s["spec"]["detector"]
                     for s in data["scenarios"].values()}
        assert detectors == {"perfect", "heartbeat"}

    def test_failing_checker_exits_1_with_one_line_per_failure(
            self, monkeypatch, tmp_path, capsys):
        """The broken fixture under delay-reorder fails ``properties``
        on every seed; its benign twin and ``genuineness`` pass."""
        from repro.adversary.selftest import (
            PROTOCOL_NAME,
            register_selftest_protocol,
        )
        from repro.campaigns.runner import Campaign
        from repro.campaigns.spec import ScenarioSpec, WorkloadSpec

        register_selftest_protocol()
        base = ScenarioSpec(
            name="benign", protocol=PROTOCOL_NAME, group_sizes=(2, 2),
            workload=WorkloadSpec(kind="poisson", rate=2.0, duration=15.0),
            checkers=("properties", "genuineness"),
        )

        def broken(seeds=None):
            seeds = tuple(seeds or (1,))
            return Campaign(name="broken", scenarios=[
                dataclasses.replace(base, seeds=seeds),
                dataclasses.replace(base, name="reorder", seeds=seeds,
                                    adversary="delay-reorder"),
            ])

        monkeypatch.setitem(CAMPAIGNS, "broken", broken)
        status = main(["campaign", "broken", "--seeds", "1,2",
                       "--out", str(tmp_path)])
        assert status == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("CHECKER FAILED:")]
        assert [line.split(": FAIL")[0] for line in failed] == [
            "CHECKER FAILED: reorder seed=1 properties",
            "CHECKER FAILED: reorder seed=2 properties",
        ]
        assert all("prefix order violated" in line for line in failed)
        data = json.loads((tmp_path / "CAMPAIGN_broken.json").read_text())
        assert data["all_checkers_ok"] is False


class TestTortureVerb:
    def test_smoke_grid_is_green_and_writes_summary(self, tmp_path,
                                                    capsys):
        status = main(["torture", "--campaign", "torture",
                       "--seeds", "1", "--max-scenarios", "4",
                       "--out", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "4 cases, 0 counterexample(s)" in out
        data = json.loads(
            (tmp_path / "TORTURE_torture.json").read_text())
        assert data["schema"] == "repro.adversary.torture/v1"
        assert data["all_checkers_ok"] is True
        assert data["counterexamples"] == []
        assert data["case_count"] == 4
        assert len(data["adversaries"]) >= 2
        for runs in data["scenarios"].values():
            for record in runs.values():
                assert all(v == "ok"
                           for v in record["verdicts"].values())
                assert record["faults_injected"] > 0

    def test_selftest_catches_shrinks_and_replays(self, tmp_path,
                                                  capsys):
        status = main(["torture", "--selftest", "--out", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "selftest OK" in out
        artifacts = list(tmp_path.glob("COUNTEREXAMPLE_*.json"))
        assert len(artifacts) == 1
        data = json.loads(artifacts[0].read_text())
        assert data["violation"] is not None
        assert data["expected"]["total_faults"] <= 5
        assert data["shrink"]["runs_used"] > 0

    def test_unknown_campaign_exits_2(self, capsys):
        assert main(["torture", "--campaign", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown campaign(s): bogus" in err
        assert "available:" in err

    def test_bad_budget_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["torture", "--shrink-budget", "0"])
        assert excinfo.value.code == 2

    def test_selftest_rejects_campaign_flags(self):
        """Grid-only flags would be silently ignored by --selftest."""
        for extra in (["--campaign", "crash-storm"],
                      ["--max-scenarios", "2"],
                      ["--no-shrink"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["torture", "--selftest"] + extra)
            assert excinfo.value.code == 2


class TestReplayVerb:
    def test_missing_file_exits_2(self, capsys):
        assert main(["replay", "/no/such/artifact.json"]) == 2
        assert "artifact.json" in capsys.readouterr().err

    def test_malformed_scenario_dict_exits_2(self, tmp_path, capsys):
        """Schema-valid but structurally broken artifacts must fail
        cleanly (exit 2), not with an uncaught traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": "repro.adversary.artifact/v1",
            "scenario": {},
            "adversary": {"name": "none"},
            "seed": 1,
            "expected": {},
        }))
        assert main(["replay", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err


class TestStoreVerb:
    ARGS = ["store", "--groups", "2,2,2", "--keys", "12", "--rate", "0.8",
            "--duration", "15", "--multi-partition", "0.4", "--seed", "1"]

    def test_store_smoke_prints_involvement_and_verdicts(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "committed of" in out
        assert "involvement" in out
        assert "checker serializability: ok" in out
        assert "checker convergence: ok" in out
        assert "checker genuineness: ok" in out

    def test_store_spectator_groups_flagged(self, capsys):
        assert main(self.ARGS + ["--groups", "2,2,2,2",
                                 "--data-groups", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "<- non-destination" in out
        assert "non-destination traffic: 0 copies" in out

    def test_store_json_record(self, tmp_path, capsys):
        path = tmp_path / "store.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["checkers"]["serializability"] == "ok"
        assert record["metrics"]["txn_committed"] > 0
        assert record["spec"]["store"]["routing"] == "genuine"

    def test_store_broadcast_routing(self, capsys):
        assert main(self.ARGS + ["--protocol", "a2",
                                 "--routing", "broadcast"]) == 0
        out = capsys.readouterr().out
        assert "broadcast routing" in out

    def test_store_unknown_protocol_exits_2(self, capsys):
        assert main(self.ARGS + ["--protocol", "nope"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_store_genuine_over_broadcast_protocol_exits_2(self, capsys):
        assert main(self.ARGS + ["--protocol", "a2"]) == 2
        assert "invalid store scenario" in capsys.readouterr().err

    def test_store_bad_fraction_exits_2(self, capsys):
        assert main(self.ARGS + ["--read-fraction", "1.5"]) == 2
        assert "invalid store scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["0", "-5"])
    def test_store_nonpositive_duration_exits_2(self, duration, capsys):
        """An empty window plans no transaction; it must not pass as a
        green run."""
        assert main(self.ARGS + ["--duration", duration]) == 2
        err = capsys.readouterr().err
        assert "invalid store scenario" in err
        assert "positive duration" in err

    def test_store_bad_groups_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "--groups", "2,x"])
        assert excinfo.value.code == 2

    def test_store_listed_in_campaigns(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "store-scaling" in out and "txn-mix" in out
