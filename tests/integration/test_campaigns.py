"""The campaign engine's acceptance properties.

* a full built-in campaign (10 scenarios) runs green under a process
  pool,
* per-seed metrics are bit-identical between ``--jobs 1`` and
  ``--jobs N`` executions (the determinism guarantee the parallel
  executor is built around),
* the JSON artefact round-trips with its aggregates intact.

Wall-clock speedup is printed for eyeballing but deliberately not
asserted: CI machines may schedule the pool on a single core, and the
determinism + green-checkers invariants are the ones that must never
flake.  ``--compare-serial`` records a measured multi-core run.
"""

import json

import pytest

from repro.campaigns import (
    CampaignRunner,
    get_campaign,
    verify_determinism,
)


@pytest.fixture(scope="module")
def executions():
    campaign = get_campaign("cross-protocol", seeds=(1,))
    serial = CampaignRunner(campaign, jobs=1).run()
    parallel = CampaignRunner(campaign, jobs=2).run()
    return campaign, serial, parallel


class TestAcceptance:
    def test_campaign_is_big_enough(self, executions):
        campaign, _, _ = executions
        assert len(campaign.scenarios) >= 8

    def test_all_checkers_green_everywhere(self, executions):
        _, serial, parallel = executions
        assert serial.all_checkers_ok, serial.failures()
        assert parallel.all_checkers_ok, parallel.failures()

    def test_parallel_metrics_bit_identical_to_serial(self, executions):
        _, serial, parallel = executions
        verify_determinism(parallel, serial)

    def test_speedup_is_measured_and_reported(self, executions, capsys):
        _, serial, parallel = executions
        speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
        with capsys.disabled():
            print(f"\n[campaigns] cross-protocol x1 seed: "
                  f"serial {serial.wall_seconds:.2f}s, "
                  f"jobs=2 {parallel.wall_seconds:.2f}s "
                  f"({speedup:.2f}x)")
        assert serial.wall_seconds > 0 and parallel.wall_seconds > 0


class TestArtifactRoundTrip:
    def test_json_written_and_parsable(self, executions, tmp_path):
        _, _, parallel = executions
        path = parallel.write(str(tmp_path))
        data = json.loads(open(path).read())
        assert data["scenario_count"] == 10
        assert data["all_checkers_ok"] is True
        # Every scenario carries per-seed metrics plus aggregates.
        for scenario in data["scenarios"].values():
            assert scenario["seeds"]
            assert scenario["aggregates"]["casts"]["n"] == 1
