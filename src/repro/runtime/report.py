"""Post-run analysis: latency percentiles, degree histograms, traffic.

:class:`RunReport` condenses a finished :class:`System` run into the
numbers a systems paper would report — latency percentiles per
destination-set size, a latency-degree histogram, per-kind message
breakdowns — and renders them as text.  The experiment harnesses use
the underlying accessors; examples and the CLI print the full report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.clocks.latency import MessageRecord
from repro.runtime.results import Row, format_table


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
    def degree_histogram(self) -> Dict[int, int]:
        """Latency degree -> message count."""
        hist: Dict[int, int] = {}
        for degree, _ in self._metered():
            hist[degree] = hist.get(degree, 0) + 1
        return dict(sorted(hist.items()))

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

    def degree_by_destination_count(self) -> Dict[int, Dict[int, int]]:
        """|dest| -> (degree -> count); the paper's k-dependence."""
        out: Dict[int, Dict[int, int]] = {}
        for degree, rec in self._metered():
            k = len(rec.dest_groups)
            out.setdefault(k, {})
            out[k][degree] = out[k].get(degree, 0) + 1
        return {k: dict(sorted(v.items())) for k, v in sorted(out.items())}

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

    def latency_by_destination_count(self) -> Dict[int, LatencySummary]:
        """|dest| -> worst-replica latency percentiles."""
        buckets: Dict[int, List[float]] = {}
        for _, rec in self._metered():
            if rec.worst_delivery_latency is not None:
                buckets.setdefault(len(rec.dest_groups), []).append(
                    rec.worst_delivery_latency)
        return {k: LatencySummary.of(v)
                for k, v in sorted(buckets.items())}

    # ------------------------------------------------------------------
    # Engine throughput statistics
    # ------------------------------------------------------------------
    def throughput_summary(
        self, wall_seconds: Optional[float] = None
    ) -> Dict[str, float]:
        """Engine-level counters for this run, optionally rated by wall time.

        ``events_per_sec`` counts simulated message events per wall
        second;
        ``kernel_events_per_sec`` counts raw kernel events, which the
        batched network deliberately keeps below the message count.
        """
        sim = self.system.sim
        stats = self.system.network.stats
        log = self.system.log
        out: Dict[str, float] = {
            "kernel_events": sim.events_executed,
            "network_messages": stats.total_messages,
            "casts": len(log.cast_map),
            "deliveries": log.delivery_count(),
            "virtual_end": sim.now,
        }
        if wall_seconds:
            out["events_per_sec"] = stats.total_messages / wall_seconds
            out["kernel_events_per_sec"] = sim.events_executed / wall_seconds
            out["wall_seconds"] = wall_seconds
        return out

    # ------------------------------------------------------------------
    # Traffic statistics
    # ------------------------------------------------------------------
    def traffic_by_kind(self, top: int = 10) -> List[Tuple[str, int, int]]:
        """(kind, total copies, inter-group copies), heaviest first."""
        stats = self.system.network.stats
        rows = [(kind, count, stats.by_kind_inter.get(kind, 0))
                for kind, count in stats.by_kind.most_common(top)]
        return rows

    def messages_per_cast(self) -> Optional[float]:
        """Total network copies amortised per application message."""
        casts = len(self.system.log.cast_map)
        if casts == 0:
            return None
        return self.system.network.stats.total_messages / casts

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full human-readable report."""
        sections = [f"Run report — protocol={self.system.protocol_name}, "
                    f"topology={self.system.topology!r}, "
                    f"virtual end time={self.system.sim.now:.1f}"]

        hist = self.degree_histogram()
        if hist:
            sections.append(format_table(
                "Latency degree histogram",
                ["degree", "messages"],
                [Row(str(deg), [count]) for deg, count in hist.items()],
            ))

        by_k = self.latency_by_destination_count()
        if by_k:
            sections.append(format_table(
                "Worst-replica delivery latency by destination count",
                ["|dest|", "msgs", "mean", "p50", "p90", "p99", "max"],
                [Row(str(k), [s.count, round(s.mean, 1), round(s.p50, 1),
                              round(s.p90, 1), round(s.p99, 1),
                              round(s.max, 1)])
                 for k, s in by_k.items()],
            ))

        traffic = self.traffic_by_kind()
        if traffic:
            sections.append(format_table(
                "Heaviest message kinds",
                ["kind", "copies", "inter-group"],
                [Row(kind, [total, inter])
                 for kind, total, inter in traffic],
            ))

        per_cast = self.messages_per_cast()
        if per_cast is not None:
            sections.append(
                f"Network copies per application message: {per_cast:.1f}"
            )

        engine = self.throughput_summary()
        sections.append(
            "Engine: {kernel_events:.0f} kernel events, "
            "{network_messages:.0f} network messages, "
            "{deliveries:.0f} deliveries".format(**engine)
        )
        return "\n\n".join(sections)
