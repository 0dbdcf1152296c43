"""Adversarial schedule exploration with counterexample shrinking.

The subsystem that torture-tests the paper's correctness claims:

* :mod:`repro.adversary.spec` — declarative, seeded
  :class:`AdversarySpec` compositions of fault injectors;
* :mod:`repro.adversary.injectors` — the live injectors (per-link
  latency skew, bounded delay/reorder, group-partition latency spikes,
  phase-boundary crashes), all within quasi-reliable link semantics;
* :mod:`repro.adversary.explorer` — run one (scenario, adversary,
  seed) case and capture checker violations with context;
* :mod:`repro.adversary.shrink` — minimise a failing case (fewer
  faults, bisected fault stream, shorter horizon, smaller topology);
* :mod:`repro.adversary.artifact` — replayable JSON counterexamples
  (``repro.cli replay <artifact>``);
* :mod:`repro.adversary.selftest` — the intentionally broken protocol
  fixture proving the pipeline catches real ordering bugs.

Front doors: ``repro.cli torture`` and the ``adversary=`` axis of
campaign scenarios.
"""

from repro.adversary.explorer import CaseResult, Violation, run_case
from repro.adversary.injectors import apply_adversary
from repro.adversary.shrink import ShrinkOutcome, shrink
from repro.adversary.spec import (
    ADVERSARIES,
    AdversarySpec,
    InjectorSpec,
    get_adversary,
)

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "CaseResult",
    "InjectorSpec",
    "ShrinkOutcome",
    "Violation",
    "apply_adversary",
    "get_adversary",
    "run_case",
    "shrink",
]
