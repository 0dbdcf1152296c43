"""Declarative scenario matrices with a parallel multi-core executor.

``campaigns`` turns the repository's bespoke experiment loops into
data: a :class:`ScenarioSpec` declares one run, :func:`matrix` expands
a grid of them, and :class:`CampaignRunner` executes the grid over a
process pool with per-seed results guaranteed identical to a serial
run.  See :mod:`repro.campaigns.library` for the built-in campaigns and
``python -m repro.cli campaign --help`` for the command-line front end.
"""

from repro.campaigns.library import CAMPAIGNS, get_campaign
from repro.campaigns.metrics import EXTRACTORS, extract
from repro.campaigns.runner import (
    Campaign,
    CampaignResult,
    CampaignRunner,
    RunResult,
    run_scenario_seed,
    verify_determinism,
)
from repro.campaigns.spec import (
    CrashSpec,
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
    matrix,
    with_seeds,
)

__all__ = [
    "CAMPAIGNS", "get_campaign",
    "EXTRACTORS", "extract",
    "Campaign", "CampaignResult", "CampaignRunner", "RunResult",
    "run_scenario_seed", "verify_determinism",
    "CrashSpec", "DestinationSpec", "LatencySpec", "ScenarioSpec",
    "WorkloadSpec", "matrix", "with_seeds",
]
