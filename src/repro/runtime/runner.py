"""Cross-seed aggregation of one metric.

Single runs of a discrete-event simulation are deterministic but
arbitrary: a conclusion should hold across seeds.  A campaign runs each
scenario under several seeds and summarises every metric as an
:class:`Aggregate` — mean, min, max and a crude spread — which is all
the repository's shape assertions need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


@dataclass
class Aggregate:
    """Summary of one metric across repetitions."""

    name: str
    values: List[float]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for a single repetition)."""
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        var = sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        return math.sqrt(var)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.stdev / math.sqrt(len(self.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.name}: {self.mean:.3f} "
                f"[{self.minimum:.3f}, {self.maximum:.3f}] "
                f"(n={self.n}, +/-{self.stderr:.3f})")
