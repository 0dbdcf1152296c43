"""Empirical companion to the Section 3 lower bounds.

Proposition 3.1 + 3.2: **no genuine atomic multicast can deliver a
message addressed to at least two groups with latency degree < 2.**
A lower bound cannot be *proven* by experiment, but it can be
stress-tested: we sweep every genuine multicast implementation in the
repository across seeds, topologies, casters and destination counts,
searching for a counterexample run with Δ < 2.  The search must come
back empty (min observed degree = 2) — and for the non-genuine
multicast (broadcast-based) it must NOT come back empty (degree 1 runs
exist), confirming the bound is about genuineness, not a limitation of
our harness.

Proposition 3.3 + Theorem 5.2: every quiescent broadcast pays degree 2
for a message cast after quiescence.  We sweep idle gaps and confirm
the late messages never beat 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.runtime.builder import build_system
from repro.runtime.results import Row, format_table

GENUINE_MULTICASTS = ("a1", "a1-noskip", "skeen", "fritzke", "ring", "global")


@dataclass
class BoundSearch:
    """Result of a counterexample search for one protocol."""

    protocol: str
    runs: int = 0
    min_degree: int = 10 ** 9
    degrees: Dict[int, int] = field(default_factory=dict)  # degree -> count

    def record(self, degree: int) -> None:
        self.runs += 1
        self.min_degree = min(self.min_degree, degree)
        self.degrees[degree] = self.degrees.get(degree, 0) + 1


def search_genuine_counterexamples(
    protocol: str,
    seeds=range(10),
    topologies=((2, 2), (3, 3), (2, 3, 2)),
    cast_offsets=(0.0, 0.3, 0.7, 1.3),
) -> BoundSearch:
    """Hunt for a Δ < 2 delivery of a ≥2-group message."""
    result = BoundSearch(protocol=protocol)
    for seed in seeds:
        for sizes in topologies:
            groups = len(sizes)
            for offset in cast_offsets:
                for sender_gid in range(groups):
                    system = build_system(protocol=protocol,
                                          group_sizes=list(sizes), seed=seed)
                    sender = system.topology.members(sender_gid)[0]
                    dest = (0, 1) if groups == 2 else (0, 1, 2)[:2 + seed % 2]
                    msg = system.cast_at(offset, sender, dest)
                    system.run_quiescent()
                    degree = system.meter.latency_degree(msg.mid)
                    assert degree is not None, "message not delivered"
                    result.record(degree)
    return result


def search_nongenuine_witness(seeds=range(5)) -> BoundSearch:
    """Show the bound does not apply without genuineness: find Δ = 1."""
    result = BoundSearch(protocol="nongenuine")
    for seed in seeds:
        # propose_delay holds round 1 open for the cast at t=0.01: it
        # selects the favourable run by adding 0.05 to the round, i.e.
        # trades sim-time latency for degree.
        system = build_system(protocol="nongenuine", group_sizes=[2, 2],
                              seed=seed, propose_delay=0.05)
        system.start_rounds()
        msg = system.cast_at(0.01, 0, (0, 1))
        system.run_quiescent()
        degree = system.meter.latency_degree(msg.mid)
        assert degree is not None
        result.record(degree)
    return result


def search_quiescence_cost(
    protocol: str = "a2", seeds=range(5), gaps=(50.0, 100.0, 500.0)
) -> BoundSearch:
    """Messages cast after quiescence never beat degree 2 (Prop 3.3)."""
    result = BoundSearch(protocol=f"{protocol} (post-quiescence)")
    for seed in seeds:
        for gap in gaps:
            system = build_system(protocol=protocol, group_sizes=[3, 3],
                                  seed=seed)
            system.cast(sender=0)             # prime, then go quiet
            probe = system.cast_at(gap, 3)
            system.run_quiescent()
            degree = system.meter.latency_degree(probe.mid)
            assert degree is not None
            result.record(degree)
    return result


def lower_bound_table() -> str:
    """Render the whole counterexample hunt."""
    rows: List[Row] = []
    for protocol in GENUINE_MULTICASTS:
        search = search_genuine_counterexamples(protocol)
        rows.append(Row(
            label=protocol,
            values=[search.runs, search.min_degree,
                    "bound holds" if search.min_degree >= 2 else "VIOLATED"],
        ))
    witness = search_nongenuine_witness()
    rows.append(Row(
        label="nongenuine (control)",
        values=[witness.runs, witness.min_degree,
                "degree 1 exists" if witness.min_degree == 1 else
                "control failed"],
    ))
    quiesce = search_quiescence_cost()
    rows.append(Row(
        label=quiesce.protocol,
        values=[quiesce.runs, quiesce.min_degree,
                "bound holds" if quiesce.min_degree >= 2 else "VIOLATED"],
    ))
    return format_table(
        "Section 3 lower bounds — counterexample search",
        ["protocol", "runs", "min degree", "verdict"],
        rows,
        note=("Genuine multicast never beats 2 (Prop 3.1/3.2); the "
              "broadcast-based control shows degree 1 is reachable once "
              "genuineness is dropped; post-quiescence broadcasts never "
              "beat 2 (Prop 3.3 / Thm 5.2)."),
    )
