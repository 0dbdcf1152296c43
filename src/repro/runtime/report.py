"""Post-run analysis: latency percentiles, degree and engine counters.

:class:`RunReport` condenses a finished :class:`System` run into the
numbers a systems paper would report: latency percentiles, latency
degree statistics, engine counters and network copies per cast.  The
campaign extractors (:mod:`repro.campaigns.metrics`) read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.clocks.latency import MessageRecord


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class LatencySummary:
    """Percentile summary of one latency population."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "LatencySummary":
        if not values:
            raise ValueError("no values to summarise")
        return cls(
            count=len(values),
            mean=sum(values) / len(values),
            p50=percentile(values, 0.50),
            p90=percentile(values, 0.90),
            p99=percentile(values, 0.99),
            max=max(values),
        )


class RunReport:
    """Derived statistics over a finished system run."""

    def __init__(self, system) -> None:
        self.system = system

    def _metered(self) -> Iterator[Tuple[int, MessageRecord]]:
        """(latency degree, record) per metered message, message-id
        order, streamed from the meter's records: nothing is kept."""
        for record in self.system.meter.records():
            degree = record.latency_degree
            if degree is not None:
                yield degree, record

    # ------------------------------------------------------------------
    # Degree statistics
    # ------------------------------------------------------------------
    def degree_summary(self) -> Dict[str, float]:
        """Flat latency-degree statistics for metric aggregation.

        The campaign engine consumes this shape directly; ``metered``
        counts messages whose degree was measurable (delivered at every
        metered replica).
        """
        degrees = [degree for degree, _ in self._metered()]
        if not degrees:
            return {"metered": 0.0, "degree_mean": 0.0,
                    "degree_max": 0.0, "degree_le1_fraction": 0.0}
        return {
            "metered": float(len(degrees)),
            "degree_mean": sum(degrees) / len(degrees),
            "degree_max": float(max(degrees)),
            "degree_le1_fraction":
                sum(1 for d in degrees if d <= 1) / len(degrees),
        }

    # ------------------------------------------------------------------
    # Wall-latency statistics
    # ------------------------------------------------------------------
    def latency_summary(self, worst_replica: bool = True
                        ) -> Optional[LatencySummary]:
        """Percentiles of delivery latency across all messages."""
        values = []
        for _, rec in self._metered():
            value = (rec.worst_delivery_latency if worst_replica
                     else rec.mean_delivery_latency)
            if value is not None:
                values.append(value)
        return LatencySummary.of(values) if values else None

    # ------------------------------------------------------------------
    # Engine throughput statistics
    # ------------------------------------------------------------------
    def throughput_summary(self) -> Dict[str, float]:
        """Engine-level counters for this run.

        ``kernel_events`` counts raw kernel events, which the batched
        network deliberately keeps below ``network_messages``.
        """
        sim = self.system.sim
        stats = self.system.network.stats
        log = self.system.log
        return {
            "kernel_events": sim.events_executed,
            "network_messages": stats.total_messages,
            "casts": len(log.cast_map),
            "deliveries": log.delivery_count(),
            "virtual_end": sim.now,
        }

    def messages_per_cast(self) -> Optional[float]:
        """Total network copies amortised per application message."""
        casts = len(self.system.log.cast_map)
        if casts == 0:
            return None
        return self.system.network.stats.total_messages / casts
