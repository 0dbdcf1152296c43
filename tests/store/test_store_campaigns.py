"""Store scenarios through the campaign engine: spec round trips,
validation, built-in matrices, and runner integration."""

import dataclasses
import pickle

import pytest

from repro.campaigns.library import get_campaign
from repro.campaigns.runner import (
    CampaignRunner,
    run_scenario_seed,
    validate_spec,
)
from repro.campaigns.spec import ScenarioSpec, StoreSpec, matrix

STORE = StoreSpec(n_keys=16, data_groups=(0, 1), rate=0.8, duration=20.0,
                  multi_partition_fraction=0.4)
BASE = ScenarioSpec(
    name="store-test",
    protocol="a1",
    group_sizes=(2, 2, 2),
    store=STORE,
    checkers=("properties", "serializability", "convergence"),
    metrics=("core", "store", "involvement"),
)


class TestSpecIntegration:
    def test_to_dict_round_trip_with_store(self):
        revived = ScenarioSpec.from_dict(BASE.to_dict())
        assert revived == BASE
        assert revived.store == STORE

    def test_from_dict_without_store_key_is_plain_scenario(self):
        data = ScenarioSpec(name="plain").to_dict()
        del data["store"]
        assert ScenarioSpec.from_dict(data).store is None

    def test_spec_is_picklable(self):
        assert pickle.loads(pickle.dumps(BASE)) == BASE

    def test_describe_includes_store(self):
        desc = BASE.describe()
        assert desc["store"]["routing"] == "genuine"
        assert desc["store"]["data_groups"] == [0, 1]
        assert "store" not in ScenarioSpec(name="plain").describe()

    def test_matrix_expands_store_axes(self):
        specs = matrix(BASE, {"store.read_fraction": [0.1, 0.9]})
        assert [s.store.read_fraction for s in specs] == [0.1, 0.9]
        assert specs[0].name.endswith("read_fraction=0.1")


class TestValidation:
    def test_store_checkers_require_store(self):
        spec = dataclasses.replace(BASE, store=None)
        with pytest.raises(ValueError, match="require a store scenario"):
            validate_spec(spec)

    def test_store_metrics_require_store(self):
        spec = dataclasses.replace(
            BASE, store=None,
            checkers=("properties",), metrics=("core", "involvement"),
        )
        with pytest.raises(ValueError, match="require a store scenario"):
            validate_spec(spec)

    def test_store_spec_valid_passes(self):
        validate_spec(BASE)


class TestBuiltInCampaigns:
    def test_store_scaling_shape(self):
        campaign = get_campaign("store-scaling", seeds=(1,))
        assert len(campaign.scenarios) == 9
        protocols = {s.protocol for s in campaign.scenarios}
        assert protocols == {"a1", "nongenuine", "a2"}
        for spec in campaign.scenarios:
            assert spec.store is not None
            assert "serializability" in spec.checkers
            assert "involvement" in spec.metrics
            if spec.protocol == "a2":
                assert spec.store.routing == "broadcast"
            else:
                assert spec.store.routing == "genuine"
        # Sizes span 4 -> 8 groups (the scaling axis).
        sizes = {len(s.group_sizes) for s in campaign.scenarios}
        assert sizes == {4, 6, 8}

    def test_txn_mix_shape(self):
        campaign = get_campaign("txn-mix", seeds=(1,))
        assert len(campaign.scenarios) == 6
        fractions = {(s.store.read_fraction,
                      s.store.multi_partition_fraction)
                     for s in campaign.scenarios}
        assert len(fractions) == 6

    def test_store_scaling_smoke_runs_green(self):
        campaign = get_campaign("store-scaling", seeds=(1,))
        campaign.scenarios = campaign.scenarios[:1]
        result = CampaignRunner(campaign).run()
        assert result.all_checkers_ok
        run = result.result(campaign.scenarios[0].name, 1)
        assert run.metrics["txn_committed"] > 0
        assert run.metrics["nondest_messages"] == 0.0

    def test_txn_mix_smoke_runs_green(self):
        campaign = get_campaign("txn-mix", seeds=(1,))
        campaign.scenarios = campaign.scenarios[:1]
        result = CampaignRunner(campaign).run()
        assert result.all_checkers_ok


class TestRunnerIntegration:
    def test_metrics_and_planned_casts(self):
        result = run_scenario_seed(BASE, seed=2)
        assert result.ok
        assert result.metrics["planned_casts"] \
            == result.metrics["txn_planned"]
        assert result.metrics["txn_committed"] > 0
        assert result.metrics["casts"] == result.metrics["txn_planned"]

    def test_run_is_seed_deterministic(self):
        a = run_scenario_seed(BASE, seed=3)
        b = run_scenario_seed(BASE, seed=3)
        assert a.metrics == b.metrics
        assert a.checkers == b.checkers

    def test_different_seeds_differ(self):
        a = run_scenario_seed(BASE, seed=3)
        b = run_scenario_seed(BASE, seed=4)
        assert a.metrics != b.metrics

    def test_broadcast_store_scenario_runs(self):
        spec = dataclasses.replace(
            BASE, protocol="a2",
            store=dataclasses.replace(STORE, routing="broadcast"),
        )
        result = run_scenario_seed(spec, seed=1)
        assert result.ok
        # Broadcast addressing involves every group.
        assert result.metrics["groups_involved"] \
            == result.metrics["groups_total"]

    def test_genuine_routing_over_broadcast_protocol_fails_fast(self):
        spec = dataclasses.replace(BASE, protocol="a2")
        with pytest.raises(ValueError, match="broadcast protocol"):
            run_scenario_seed(spec, seed=1)
