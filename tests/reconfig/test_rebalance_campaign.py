"""The rebalance campaign, its spec plumbing and its comparison."""

import json
import random

import pytest

from repro.campaigns.library import CAMPAIGNS, rebalance
from repro.campaigns.runner import (
    CampaignRunner,
    run_scenario_seed,
    validate_spec,
)
from repro.campaigns.spec import ScenarioSpec, StoreSpec
from repro.net.topology import Topology
from repro.store.workload import partition_keys, txn_workload


class TestSpecPlumbing:
    def test_store_spec_round_trips_elastic_fields(self):
        spec = StoreSpec(popularity="global", zipf_skew=1.0,
                         service_time=2.5, rebalance_interval=10.0,
                         rebalance_threshold=1.3, placement="ring")
        revived = StoreSpec.from_dict(dict(spec.__dict__))
        assert revived == spec

    def test_unknown_popularity_rejected(self):
        with pytest.raises(ValueError, match="popularity"):
            StoreSpec(popularity="viral")

    def test_validate_spec_rejects_out_of_range_data_groups(self):
        spec = ScenarioSpec(
            name="bad-store", protocol="a1", group_sizes=(2, 2),
            store=StoreSpec(data_groups=(0, 5)), seeds=(1,),
        )
        with pytest.raises(ValueError,
                           match=r"data_groups \[5\] outside"):
            validate_spec(spec)

    def test_validate_spec_accepts_in_range_data_groups(self):
        validate_spec(ScenarioSpec(
            name="ok-store", protocol="a1", group_sizes=(2, 2),
            store=StoreSpec(data_groups=(0, 1)), seeds=(1,),
        ))


class TestGlobalPopularity:
    TOPO = Topology([2, 2, 2, 2])
    CLIENTS = [0, 2, 4, 6]

    def _key_counts(self, spec, seed=5):
        plans = txn_workload(spec, self.TOPO, self.CLIENTS,
                             random.Random(seed))
        counts = {}
        for plan in plans:
            for op in plan.ops:
                counts[op[1]] = counts.get(op[1], 0) + 1
        return counts

    def test_one_zipf_law_over_the_whole_keyspace(self):
        spec = StoreSpec(n_keys=32, rate=4.0, duration=150.0,
                         zipf_skew=1.2, popularity="global")
        counts = self._key_counts(spec)
        # Under one global law, k00000 dominates every other key no
        # matter which partition owns it; per-partition popularity
        # re-ranks keys within each group instead.
        assert counts.get("k00000", 0) > 3 * counts.get("k00020", 0)

    def test_partition_load_follows_owned_mass(self):
        spec = StoreSpec(n_keys=32, rate=4.0, duration=150.0,
                         zipf_skew=1.2, popularity="global")
        keymap = partition_keys(spec, self.TOPO)
        counts = self._key_counts(spec)
        load = {}
        for key, count in counts.items():
            load[keymap[key]] = load.get(keymap[key], 0) + count
        hot_group = keymap["k00000"]
        assert load[hot_group] == max(load.values())

    def test_partition_mode_is_unchanged_default(self):
        assert StoreSpec().popularity == "partition"


class TestRebalanceCampaign:
    def test_registered_with_description(self):
        assert "rebalance" in CAMPAIGNS

    def test_grid_shape(self):
        camp = rebalance(seeds=(1,))
        assert len(camp.scenarios) == 6
        benign = [s for s in camp.scenarios
                  if s.adversary in (None, "none")]
        adversarial = [s for s in camp.scenarios
                       if s.adversary not in (None, "none")]
        assert len(benign) == 4 and len(adversarial) == 2
        assert {len(s.group_sizes) for s in benign} == {16, 24}
        assert {s.store.rebalance_interval for s in benign} == {0.0, 10.0}
        assert {s.adversary for s in adversarial} == {
            "delay-reorder", "phase-crash"}
        for spec in camp.scenarios:
            assert "serializability" in spec.checkers
            assert "reconfig" in spec.checkers

    def test_elastic_cell_runs_green_with_migrations(self):
        camp = rebalance(seeds=(1,))
        spec = next(s for s in camp.scenarios
                    if s.adversary in (None, "none")
                    and len(s.group_sizes) == 16
                    and s.store.rebalance_interval > 0)
        result = run_scenario_seed(spec, 1)
        assert all(v == "ok" for v in result.checkers.values()), \
            result.checkers
        assert result.metrics["reconfigs_completed"] >= 1
        assert result.metrics["txn_uncommitted"] == 0


class TestCli:
    def test_campaign_verb_prints_and_persists_comparison(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        status = main(["campaign", "rebalance", "--seeds", "1",
                       "--max-scenarios", "2",
                       "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "static epoch-0 map vs online rebalance" in out
        record = json.loads(
            (tmp_path / "CAMPAIGN_rebalance.json").read_text())
        assert record["all_checkers_ok"] is True
        assert record["comparison"][0]["n_groups"] == 16

    def test_comparison_merges_with_serial_baseline(self, tmp_path):
        from repro.cli import main

        status = main(["campaign", "rebalance", "--seeds", "1",
                       "--max-scenarios", "2", "--compare-serial",
                       "--out", str(tmp_path)])
        assert status == 0
        record = json.loads(
            (tmp_path / "CAMPAIGN_rebalance.json").read_text())
        assert record["comparison"][0]["n_groups"] == 16
        assert record["serial_baseline"]["per_seed_metrics_identical"]

    def test_comparison_skips_a_truncated_pair(self):
        """Only the static arm ran: no row, but the header still prints."""
        camp = rebalance(seeds=(1,))
        camp.scenarios = camp.scenarios[:1]
        table, rows = camp.compare(CampaignRunner(camp).run())
        assert rows == []
        assert "static epoch-0 map vs online rebalance" in table

    def test_store_verb_prints_p99(self, capsys):
        from repro.cli import main

        status = main(["store", "--keys", "8", "--rate", "1",
                       "--duration", "10"])
        out = capsys.readouterr().out
        assert status == 0
        assert "p99" in out
