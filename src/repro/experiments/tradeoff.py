"""The introduction's latency/message-complexity tradeoff, measured.

Paper, Section 1: *"Consider a partial replication scenario where each
group replicates a set of objects.  If latency is the main concern,
then every operation should be broadcast to all groups ... this
solution, however, has a high message complexity ...  To reduce the
message complexity, genuine multicast can be used.  However, any
genuine multicast algorithm will have a latency degree of at least
two."*

We run the same partial-replication workload — operations addressed to
k of G groups — through:

* **Algorithm A1** (genuine): only the k destination groups work;
* **broadcast-to-all over Algorithm A2** (non-genuine): every group
  sees every operation, destinations filter on delivery.

and report, per protocol: steady-state latency degree, total inter-group
messages, and how many messages were handled by processes that were not
addressees (the waste genuineness eliminates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


from repro.runtime.builder import build_system
from repro.runtime.results import Row, format_table
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


@dataclass
class TradeoffPoint:
    """Measurements for one protocol on the shared workload."""

    protocol: str
    messages: int
    best_degree: int
    mean_degree: float
    inter_msgs_per_op: float
    discarded_deliveries: int


def run_tradeoff(
    protocol: str,
    groups: int = 6,
    d: int = 2,
    k: int = 2,
    seed: int = 1,
    rate: float = 0.8,
    duration: float = 25.0,
) -> TradeoffPoint:
    """One protocol on the k-of-G partial replication workload."""
    # propose_delay buys latency *degree* by adding 0.3 of sim-time
    # latency to every round (casts landing in the window share its
    # bundle); the latency column pays for it (core/abcast.py).
    kwargs = {"propose_delay": 0.3} if protocol == "nongenuine" else {}
    system = build_system(protocol=protocol, group_sizes=[d] * groups,
                          seed=seed, **kwargs)
    system.start_rounds()
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"), rate=rate,
        duration=duration, destinations=uniform_k_groups(k),
    )
    msgs = schedule_workload(system, plans)
    system.run_quiescent()

    degrees = [system.meter.latency_degree(m.mid) for m in msgs]
    degrees = [x for x in degrees if x is not None]
    # Application-level deliveries discarded at non-addressees — the
    # waste broadcast-to-all pays and genuineness eliminates by design.
    discarded = sum(
        getattr(endpoint, "discarded_deliveries", 0)
        for endpoint in system.endpoints.values()
    )
    return TradeoffPoint(
        protocol=protocol,
        messages=len(degrees),
        best_degree=min(degrees) if degrees else -1,
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        inter_msgs_per_op=system.inter_group_messages / max(len(msgs), 1),
        discarded_deliveries=discarded,
    )


def tradeoff_table(groups: int = 6, d: int = 2, k: int = 2,
                   seed: int = 1) -> str:
    """Render the genuine-vs-broadcast comparison."""
    rows: List[Row] = []
    for protocol in ("a1", "nongenuine"):
        point = run_tradeoff(protocol, groups=groups, d=d, k=k, seed=seed)
        label = ("A1 (genuine multicast)" if protocol == "a1"
                 else "A2 broadcast-to-all")
        rows.append(Row(
            label=label,
            values=[point.messages, point.best_degree,
                    f"{point.mean_degree:.2f}",
                    f"{point.inter_msgs_per_op:.1f}",
                    point.discarded_deliveries],
        ))
    return format_table(
        f"Introduction tradeoff — ops to k={k} of {groups} groups "
        f"(d={d})",
        ["protocol", "ops", "best deg", "mean deg", "inter/op",
         "discarded delivs"],
        rows,
        note=("Genuine A1 can never beat latency degree 2 but keeps "
              "bystander groups idle; broadcast-to-all reaches degree 1 "
              "at the cost of dragging every process into every "
              "operation (non-zero bystander column and higher "
              "inter-group traffic per op as the group count grows)."),
    )
