"""Runtime: system assembly, logs, reports, cross-seed aggregates."""

from repro.runtime.builder import PROTOCOLS, System, build_system
from repro.runtime.report import LatencySummary, RunReport, percentile
from repro.runtime.results import DeliveryLog, Row, format_table
from repro.runtime.runner import Aggregate

__all__ = [
    "PROTOCOLS", "System", "build_system", "LatencySummary", "RunReport",
    "percentile", "DeliveryLog", "Row", "format_table", "Aggregate",
]
