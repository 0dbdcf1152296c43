"""Figure 1 regeneration: the paper's protocol comparison tables.

Figure 1(a) compares atomic **multicast** algorithms, Figure 1(b)
atomic **broadcast** algorithms, on two columns each:

* latency degree (best case, failure-free), and
* number of inter-group messages.

The paper derives its numbers analytically from the oracle-based
substrate costs of [6] (reliable multicast, ``d(k-1)`` inter-group
messages) and [11] (consensus, ``2kd(kd-1)`` when run across k groups).
We *measure* both columns on real runs of our implementations and print
them next to the paper's formulas, so the table can be eyeballed row by
row.  Absolute counts differ slightly from the formulas (e.g. ours
include the initial cast copy); the asymptotic shape and the ranking
must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.builder import build_system
from repro.runtime.results import Row, format_table
from repro.workload.generators import periodic_workload, schedule_workload


@dataclass
class ComparisonResult:
    """One protocol's measured row."""

    protocol: str
    paper_degree: str
    measured_degree: Optional[int]
    paper_msgs: str
    measured_inter_msgs: float


# ----------------------------------------------------------------------
# Figure 1(a): atomic multicast
# ----------------------------------------------------------------------
def run_fig1a_single(protocol: str, k: int, d: int,
                     seed: int = 1) -> ComparisonResult:
    """One multicast to k groups of d processes; measure the columns."""
    paper = {
        "ring": (f"k+1 = {k + 1}", "O(kd^2)"),
        "global": ("4", "O(k^2 d^2)"),
        "fritzke": ("2", "O(k^2 d^2)"),
        "a1": ("2", "O(k^2 d^2)"),
        "skeen": ("2", "O(k^2 d^2)"),
    }
    sizes = [d] * max(k, 2)
    system = build_system(protocol=protocol, group_sizes=sizes, seed=seed)
    msg = system.cast(sender=0, dest_groups=tuple(range(k)))
    system.run_quiescent()
    degree, msgs = paper[protocol]
    return ComparisonResult(
        protocol=protocol,
        paper_degree=degree,
        measured_degree=system.meter.latency_degree(msg.mid),
        paper_msgs=msgs,
        measured_inter_msgs=system.inter_group_messages,
    )


def fig1a_table(k: int = 2, d: int = 3, seed: int = 1) -> str:
    """Render Figure 1(a) for one (k, d) point."""
    rows = []
    for protocol in ("ring", "global", "fritzke", "a1", "skeen"):
        r = run_fig1a_single(protocol, k, d, seed)
        rows.append(Row(
            label=_LABELS[protocol],
            values=[r.paper_degree, r.measured_degree,
                    r.paper_msgs, int(r.measured_inter_msgs)],
        ))
    return format_table(
        f"Figure 1(a) — atomic multicast, k={k} destination groups, "
        f"d={d} processes/group",
        ["algorithm", "paper deg", "meas deg", "paper msgs", "meas inter"],
        rows,
        note=("Skeen is the failure-free classic; the paper's corollary is "
              "that its degree of 2 is optimal.  Ring ([4]) trades latency "
              "for O(kd^2) messages; our caster sits in the first ring "
              "group, so it measures k where the paper counts k+1."),
    )


def fig1a_sweep(ks=(2, 3, 4), d: int = 2, seed: int = 1
                ) -> Dict[str, Dict[int, ComparisonResult]]:
    """Measure every multicast protocol across destination counts."""
    out: Dict[str, Dict[int, ComparisonResult]] = {}
    for protocol in ("ring", "global", "fritzke", "a1", "skeen"):
        out[protocol] = {k: run_fig1a_single(protocol, k, d, seed)
                         for k in ks}
    return out


# ----------------------------------------------------------------------
# Figure 1(b): atomic broadcast
# ----------------------------------------------------------------------
def run_fig1b_single(protocol: str, groups: int, d: int, seed: int = 1,
                     messages: int = 12) -> ComparisonResult:
    """Sustained broadcast workload; measure degree and amortised cost.

    Broadcast protocols amortise infrastructure traffic (rounds, slots)
    across messages, so the message column is inter-group messages per
    application message over a steady workload.
    """
    n = groups * d
    paper = {
        "optimistic": ("2", "O(n)"),
        "sequencer": ("2", "O(n^2)"),
        "a2": ("1", "O(n^2)"),
        "detmerge": ("1", "O(n)"),
    }
    # The window places the one measured cast inside round 1's bundle
    # (Theorem 5.1's favourable run); it adds its length to the latency
    # of every round, so it is a device of this experiment only.
    kwargs = {"propose_delay": 0.05} if protocol == "a2" else {}
    system = build_system(protocol=protocol, group_sizes=[d] * groups,
                          seed=seed, **kwargs)
    system.start_rounds()
    # Round-robin senders from outside group 0, so sequencer-based
    # protocols do not get the colocated-caster freebie (their
    # sequencers live in group 0).
    senders = [p for p in system.topology.processes
               if system.topology.group_of(p) != 0]
    period = 0.7
    if protocol == "detmerge":
        # [1] amortises its slot streams over traffic; drive it in its
        # natural dense regime (the paper's model has every publisher
        # casting infinitely many messages) with all processes sending.
        senders = system.topology.processes
        messages = max(messages, 60)
        period = 0.08
    plans = periodic_workload(system.topology, period=period,
                              count=messages, senders=senders, start=0.01)
    msgs = schedule_workload(system, plans)
    system.run_quiescent()
    degrees = [system.meter.latency_degree(m.mid) for m in msgs]
    # Steady-state degree: ignore the first message (cold start) and
    # take the typical (minimum) value, matching the paper's best-case
    # accounting.
    steady = [d_ for d_ in degrees[1:] if d_ is not None]
    paper_deg, paper_msgs = paper[protocol]
    return ComparisonResult(
        protocol=protocol,
        paper_degree=paper_deg,
        measured_degree=min(steady) if steady else None,
        paper_msgs=paper_msgs,
        measured_inter_msgs=system.inter_group_messages / len(msgs),
    )


def fig1b_table(groups: int = 2, d: int = 3, seed: int = 1) -> str:
    """Render Figure 1(b) for one (groups, d) point."""
    rows = []
    for protocol in ("optimistic", "sequencer", "a2", "detmerge"):
        r = run_fig1b_single(protocol, groups, d, seed)
        rows.append(Row(
            label=_LABELS[protocol],
            values=[r.paper_degree, r.measured_degree,
                    r.paper_msgs, round(r.measured_inter_msgs, 1)],
        ))
    return format_table(
        f"Figure 1(b) — atomic broadcast, {groups} groups × {d} processes "
        f"(n={groups * d})",
        ["algorithm", "paper deg", "meas deg", "paper msgs",
         "meas inter/msg"],
        rows,
        note=("Degrees are steady-state best case (first, cold message "
              "excluded).  [12] is non-uniform; [1] assumes reliable links "
              "and crash-free publishers — both footnoted in the paper."),
    )


def fig1_table() -> str:
    """Render Figure 1(a) and 1(b) at their default points."""
    return fig1a_table() + "\n\n" + fig1b_table()


_LABELS = {
    "ring": "[4] Delporte&Fauconnier",
    "global": "[10] Rodrigues et al.",
    "fritzke": "[5] Fritzke et al.",
    "a1": "Algorithm A1 (paper)",
    "skeen": "[2] Skeen (no faults)",
    "optimistic": "[12] Sousa et al.",
    "sequencer": "[13] Vicente&Rodrigues",
    "a2": "Algorithm A2 (paper)",
    "detmerge": "[1] Aguilera&Strom",
}
