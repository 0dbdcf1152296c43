"""Per-run metric extraction for campaign scenarios.

Every extractor maps a finished :class:`~repro.runtime.builder.System`
to a flat ``{metric name: float}`` dict, read from the run's records
(``system.meter.records()``), its log and its network counters, with
the one :func:`~repro.runtime.report.percentile` rule the rest of the
repository uses.  Scenario specs name the
extractors they want (``ScenarioSpec.metrics``); the registry keeps the
names picklable across worker processes — workers look extractors up by
name instead of shipping function objects.

The flat-dict shape is what
:class:`~repro.runtime.runner.Aggregate` consumes, so cross-seed
aggregation falls out of the existing multi-seed machinery.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List

from repro.runtime.report import percentile

MetricExtractor = Callable[[object], Dict[str, float]]

_DEGREE = attrgetter("latency_degree")


def core_metrics(system) -> Dict[str, float]:
    """Engine-level counters: casts, deliveries, events, traffic.

    ``kernel_events`` counts raw kernel events, which the batched
    network deliberately keeps below ``network_messages``; ``casts``
    counts the catalog's entries, one per cast message of a built run.
    """
    sim = system.sim
    return {
        "kernel_events": float(sim.events_executed),
        "network_messages": float(system.network.stats.total_messages),
        "casts": float(len(system.catalog)),
        "deliveries": float(system.log.delivery_count()),
        "virtual_end": float(sim.now),
    }


def latency_metrics(system) -> Dict[str, float]:
    """Worst- and mean-replica delivery latency over the messages whose
    latency degree is measurable (cast, and delivered at least once)."""
    metered = [rec for rec in system.meter.records()
               if rec.latency_degree is not None]
    if not metered:
        return {}
    worst = [rec.worst_delivery_latency for rec in metered]
    mean = [rec.mean_delivery_latency for rec in metered]
    return {
        "latency_worst_mean": sum(worst) / len(worst),
        "latency_worst_p50": percentile(worst, 0.50),
        "latency_worst_p90": percentile(worst, 0.90),
        "latency_worst_max": max(worst),
        "latency_mean_mean": sum(mean) / len(mean),
    }


def degree_metrics(system) -> Dict[str, float]:
    """Latency-degree statistics (the paper's optimality currency).

    ``metered`` counts messages whose degree was measurable.
    """
    degrees = [degree for degree in map(_DEGREE, system.meter.records())
               if degree is not None]
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


def traffic_metrics(system) -> Dict[str, float]:
    """Network copies, split intra/inter and amortised per cast."""
    stats = system.network.stats
    out = {
        "inter_group_messages": float(stats.inter_group_messages),
        "intra_group_messages": float(stats.intra_group_messages),
    }
    casts = len(system.catalog)
    if casts:
        out["inter_per_cast"] = stats.inter_group_messages / casts
        out["intra_per_cast"] = stats.intra_group_messages / casts
        out["messages_per_cast"] = stats.total_messages / casts
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
