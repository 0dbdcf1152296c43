"""The one percentile rule every report uses.

The campaign extractors (:mod:`repro.campaigns.metrics`), the store
metrics and the benchmark read latency percentiles through
:func:`percentile`.
"""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]
