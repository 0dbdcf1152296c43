"""Per-run metric extraction for campaign scenarios.

Every extractor maps a finished :class:`~repro.runtime.builder.System`
to a flat ``{metric name: float}`` dict, computed through
:class:`~repro.runtime.report.RunReport` so campaigns report exactly the
numbers the rest of the repository reports.  Scenario specs name the
extractors they want (``ScenarioSpec.metrics``); the registry keeps the
names picklable across worker processes — workers look extractors up by
name instead of shipping function objects.

The flat-dict shape is what
:class:`~repro.runtime.runner.Aggregate` consumes, so cross-seed
aggregation falls out of the existing multi-seed machinery.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.runtime.report import RunReport

MetricExtractor = Callable[[object], Dict[str, float]]


def core_metrics(system) -> Dict[str, float]:
    """Engine-level counters: casts, deliveries, events, traffic."""
    return {k: float(v)
            for k, v in RunReport(system).throughput_summary().items()}


def latency_metrics(system) -> Dict[str, float]:
    """Worst- and mean-replica delivery latency percentiles."""
    report = RunReport(system)
    out: Dict[str, float] = {}
    worst = report.latency_summary(worst_replica=True)
    if worst is not None:
        out.update({
            "latency_worst_mean": worst.mean,
            "latency_worst_p50": worst.p50,
            "latency_worst_p90": worst.p90,
            "latency_worst_max": worst.max,
        })
    mean = report.latency_summary(worst_replica=False)
    if mean is not None:
        out["latency_mean_mean"] = mean.mean
    return out


def degree_metrics(system) -> Dict[str, float]:
    """Latency-degree statistics (the paper's optimality currency)."""
    return RunReport(system).degree_summary()


def traffic_metrics(system) -> Dict[str, float]:
    """Network copies, split intra/inter and amortised per cast."""
    stats = system.network.stats
    out = {
        "inter_group_messages": float(stats.inter_group_messages),
        "intra_group_messages": float(stats.intra_group_messages),
    }
    casts = len(system.log.cast_map)
    if casts:
        out["inter_per_cast"] = stats.inter_group_messages / casts
        out["intra_per_cast"] = stats.intra_group_messages / casts
    per_cast = RunReport(system).messages_per_cast()
    if per_cast is not None:
        out["messages_per_cast"] = per_cast
    return out


def round_metrics(system) -> Dict[str, float]:
    """Round usefulness for proactive round-based protocols (A2 family).

    Protocols without round counters report zeros, so a mixed-protocol
    campaign still returns a consistent metric set per scenario.
    """
    endpoint = system.endpoints[min(system.endpoints)]
    executed = float(getattr(endpoint, "rounds_executed", 0) or 0)
    useful = float(getattr(endpoint, "useful_rounds", 0) or 0)
    return {
        "rounds_executed": executed,
        "useful_rounds": useful,
        "useful_round_fraction": useful / executed if executed else 0.0,
    }


def transport_metrics(system) -> Dict[str, float]:
    """Reliable-transport counters plus channel-fault accounting.

    Works on any system: without a mounted transport the ``tsp_*``
    counters are all zero (so a transport="none"/"reliable" grid axis
    yields comparable rows), and the wire-level drop/duplicate counters
    come from the network stats either way.  ``tsp_overhead_copies`` is
    the transport's price in extra wire copies — retransmissions plus
    acks — amortised per sequenced data copy.
    """
    stats = system.network.stats
    out = {
        "wire_dropped": float(stats.dropped),
        "wire_duplicated": float(stats.duplicated),
    }
    from repro.transport import TransportStats

    transport = getattr(system, "transport", None)
    snap = (transport.stats if transport is not None
            else TransportStats()).snapshot()
    out.update({f"tsp_{name}": float(value)
                for name, value in snap.items()})
    data = snap["data_copies"]
    extra = snap["retransmits"] + snap["fast_retransmits"] + snap["acks_sent"]
    out["tsp_overhead_copies"] = extra / data if data else 0.0
    checker = getattr(system, "stabilization_checker", None)
    settle = getattr(checker, "last_delivery_at", None)
    out["stab_last_delivery_at"] = float(settle) if settle is not None else 0.0
    return out


def _store_metrics(system) -> Dict[str, float]:
    """Serving-layer metrics (see :mod:`repro.store.metrics`)."""
    from repro.store.metrics import store_metrics

    return store_metrics(system)


def _reconfig_metrics(system) -> Dict[str, float]:
    """Elastic-repartitioning counters (see :mod:`repro.reconfig.metrics`).

    All zeros on a static store scenario, so a rebalance-on/off grid
    axis yields comparable rows.  Only valid for store scenarios.
    """
    from repro.reconfig.metrics import reconfig_metrics

    return reconfig_metrics(system)


def _involvement_metrics(system) -> Dict[str, float]:
    """Per-group involvement metrics (see :mod:`repro.store.metrics`).

    Naming ``involvement`` in ``ScenarioSpec.metrics`` makes the
    campaign runner build the system with ``trace=True`` automatically
    (the rule genuineness uses).  Only valid for store scenarios.
    """
    from repro.store.metrics import involvement_metrics

    return involvement_metrics(system)


EXTRACTORS: Dict[str, MetricExtractor] = {
    "core": core_metrics,
    "latency": latency_metrics,
    "degrees": degree_metrics,
    "traffic": traffic_metrics,
    "rounds": round_metrics,
    "transport": transport_metrics,
    "store": _store_metrics,
    "involvement": _involvement_metrics,
    "reconfig": _reconfig_metrics,
}


def extract(system, names: List[str]) -> Dict[str, float]:
    """Run the named extractors and merge their metric dicts."""
    out: Dict[str, float] = {}
    for name in names:
        if name not in EXTRACTORS:
            raise KeyError(
                f"unknown metric extractor {name!r}; "
                f"have {sorted(EXTRACTORS)}"
            )
        for key, value in EXTRACTORS[name](system).items():
            if key in out:
                raise ValueError(
                    f"metric {key!r} produced by two extractors"
                )
            out[key] = float(value)
    return out
