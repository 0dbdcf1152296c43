"""The committed ``CAMPAIGN_rebalance.json`` / ``.md`` are what the
campaign writes today.

The README and the CI rebalance smoke cite the committed run (seeds
1-3).  This regenerates it and compares every per-seed metric cell,
checker verdict, aggregate and the static-vs-online comparison exactly;
only wall-clock keys are left out.  Were a change to move any of them,
the artifact would have to be regenerated
(``python -m repro.cli campaign rebalance --seeds 1,2,3 --out .``).
"""

import json
import os

import pytest

from repro.campaigns import CampaignRunner, get_campaign

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
COMMITTED = os.path.abspath(os.path.join(REPO_ROOT, "CAMPAIGN_rebalance"))
SEEDS = (1, 2, 3)


def _without_wall_clock(tree):
    """``tree`` with every ``wall_seconds`` key dropped, at any depth."""
    if isinstance(tree, dict):
        return {key: _without_wall_clock(value)
                for key, value in tree.items() if key != "wall_seconds"}
    return tree


@pytest.fixture(scope="module")
def committed():
    with open(COMMITTED + ".json") as fh:
        data = json.load(fh)
    with open(COMMITTED + ".md") as fh:
        return data, fh.read()


@pytest.fixture(scope="module")
def regenerated():
    campaign = get_campaign("rebalance", seeds=SEEDS)
    result = CampaignRunner(campaign, jobs=1).run()
    data = result.to_json()
    data["comparison"] = campaign.compare(result)[1]
    # Through JSON, as the committed file went: tuples become lists.
    return json.loads(json.dumps(data)), result.markdown_summary() + "\n"


class TestCommittedRebalanceCampaign:
    def test_committed_run_is_at_the_regenerated_seeds(self, committed):
        data, _ = committed
        for name, scenario in data["scenarios"].items():
            assert tuple(scenario["spec"]["seeds"]) == SEEDS, name
            assert sorted(scenario["seeds"]) == [str(s) for s in SEEDS]

    def test_every_metric_cell_and_verdict_matches(self, committed,
                                                   regenerated):
        old = _without_wall_clock(committed[0]["scenarios"])
        new = _without_wall_clock(regenerated[0]["scenarios"])
        assert sorted(old) == sorted(new)
        for name in old:
            for seed, run in old[name]["seeds"].items():
                fresh = new[name]["seeds"][seed]
                assert run["checkers"] == fresh["checkers"], (name, seed)
                assert run["metrics"] == fresh["metrics"], (name, seed)
            assert old[name] == new[name], name

    def test_verdict_and_comparison_match(self, committed, regenerated):
        for key in ("all_checkers_ok", "comparison", "task_count"):
            assert committed[0][key] == regenerated[0][key], key

    def test_markdown_matches_below_its_wall_clock_title(self, committed,
                                                         regenerated):
        assert (committed[1].splitlines()[1:]
                == regenerated[1].splitlines()[1:])
