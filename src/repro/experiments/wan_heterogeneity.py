"""Heterogeneous WAN: where the latency degree stops telling the story.

The paper's closing remark on Figure 1: *"Deciding which algorithm is
best is not straightforward as it depends on factors such as the
network topology as well as the latencies and bandwidths of links."*

This experiment makes that concrete.  On a three-continent topology
with asymmetric one-way delays (EU-NA 45 ms, NA-ASIA 75 ms, EU-ASIA
90 ms), two algorithms with *adjacent* Figure 1a rows behave very
differently in wall-clock terms:

* **A1** (degree 2) pays ``2 × slowest link`` regardless of which
  groups a message touches — its hops run in parallel;
* **the ring [4]** (degree k) pays the *sum* of the links along the
  ring — sequential handoffs accumulate, and the group ordering decides
  which links appear in the sum.

We measure worst-replica delivery latency per destination pair and for
all three groups, A1 vs ring, and report the ratio — the concrete
"which algorithm is best depends on the topology" of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.topology import Jittered, LatencyModel
from repro.runtime.builder import build_system
from repro.runtime.results import Row, format_table


def three_continent_latency(jitter: float = 0.0) -> LatencyModel:
    """EU(0) - NA(1) - ASIA(2) one-way delays in milliseconds."""
    legs = {(0, 1): 45.0, (0, 2): 90.0, (1, 2): 75.0}
    pairwise = {}
    for (a, b), ms in legs.items():
        pairwise[(a, b)] = Jittered(ms, jitter)
        pairwise[(b, a)] = Jittered(ms, jitter)
    return LatencyModel(intra=Jittered(0.5, jitter / 10 if jitter else 0.0),
                        inter=Jittered(100.0, jitter),
                        pairwise_inter=pairwise)


@dataclass
class PairPoint:
    """Latency of one destination set under one protocol."""

    protocol: str
    dest: Tuple[int, ...]
    degree: int
    worst_latency_ms: float


def measure(protocol: str, dest: Tuple[int, ...], seed: int = 1,
            sender_gid: int = None) -> PairPoint:
    """One multicast to ``dest``, measured on the continent topology."""
    system = build_system(protocol=protocol, group_sizes=[3, 3, 3],
                          seed=seed, latency=three_continent_latency())
    sender_gid = dest[0] if sender_gid is None else sender_gid
    sender = system.topology.members(sender_gid)[0]
    msg = system.cast(sender=sender, dest_groups=dest)
    system.run_quiescent()
    rec = system.meter.record_for(msg.mid)
    return PairPoint(
        protocol=protocol,
        dest=dest,
        degree=rec.latency_degree,
        worst_latency_ms=rec.worst_delivery_latency,
    )


DEST_SETS = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
DEST_NAMES = {(0, 1): "EU+NA (45ms leg)", (0, 2): "EU+ASIA (90ms leg)",
              (1, 2): "NA+ASIA (75ms leg)", (0, 1, 2): "all three"}


def heterogeneity_table(seed: int = 1) -> str:
    """A1 vs ring [4], per destination set, on the continent WAN."""
    rows: List[Row] = []
    for dest in DEST_SETS:
        a1 = measure("a1", dest, seed)
        ring = measure("ring", dest, seed)
        rows.append(Row(
            label=DEST_NAMES[dest],
            values=[a1.degree, f"{a1.worst_latency_ms:.0f}",
                    ring.degree, f"{ring.worst_latency_ms:.0f}",
                    f"{ring.worst_latency_ms / a1.worst_latency_ms:.2f}x"],
        ))
    return format_table(
        "Heterogeneous WAN (EU-NA 45ms, NA-ASIA 75ms, EU-ASIA 90ms) — "
        "A1 vs ring [4]",
        ["destinations", "A1 deg", "A1 ms", "ring deg", "ring ms",
         "ring/A1"],
        rows,
        note=("A1's two hops run in parallel (cost ~= 2x the slowest "
              "leg); the ring's handoffs are sequential (cost ~= the "
              "sum of the legs on the ring path), so its penalty grows "
              "with the destination count and the leg asymmetry — the "
              "paper's 'which algorithm is best depends on the "
              "topology'."),
    )


def collect_points(seed: int = 1) -> Dict[str, Dict[Tuple[int, ...],
                                                    PairPoint]]:
    """Raw points for the benchmark assertions."""
    return {
        protocol: {dest: measure(protocol, dest, seed)
                   for dest in DEST_SETS}
        for protocol in ("a1", "ring")
    }
