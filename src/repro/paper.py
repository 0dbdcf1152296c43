"""The paper in one table: each claim, measured, next to its bound.

Every claim the repository reproduces — Theorems 4.1 / 5.1 / 5.2,
Propositions 3.1-3.3, Figure 1(a)/(b), Section 5.3's rate claim and the
extensions around them — is one :class:`Claim` row of :data:`CLAIMS`:
a stable id, the paper artefact it comes from, its statement, a
zero-argument ``measure`` returning one number, and the ``bound`` that
number must meet.  ``python -m repro.cli paper [ID_PREFIX ...]`` prints
the table, and ``tests/paper/test_claims.py`` checks every row as one
case.

A claim over several points measures its worst point; a comparison of
two runs measures their ratio or difference.  A row that states a
message or discard count reads the cells of a grid where one cast
misses its closed form (:data:`FORMS`); only [1], whose dense,
load-dependent regime has none, keeps a ratio row, and the orderings
the paper states between counts are read off the forms in
``tests/paper/test_table.py``.  Every input is fixed here — seed,
sizes, duration, ``propose_delay`` — and runs shared by several rows
are memoised, so each runs once per process.  The rate points are the
``rate-sweep`` campaign's scenarios (:mod:`repro.campaigns.library`);
the constructive runs are built by the short functions below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, Sequence, Tuple

from repro.campaigns.library import rate_scenario
from repro.campaigns.runner import run_scenario_seed
from repro.campaigns.spec import ScenarioSpec
from repro.checkers.properties import check_all
from repro.core.prediction import (
    LingerPredictor,
    PaperPredictor,
    RateAdaptivePredictor,
)
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Jittered, LatencyModel, LatencySpec
from repro.runtime.builder import SystemSpec, build_system
from repro.workload.generators import (
    burst_workload,
    periodic_workload,
    schedule_workload,
)

#: The comparisons a bound may use.
OPS: Dict[str, Callable[[float, float], bool]] = {
    "==": operator.eq, "<=": operator.le, "<": operator.lt,
    ">=": operator.ge, ">": operator.gt,
}


@dataclass(frozen=True)
class Claim:
    """One claim of the paper and the number that checks it."""

    id: str
    source: str
    statement: str
    measure: Callable[[], float]
    bound: Tuple[str, float]

    def holds(self, value: float) -> bool:
        """Whether ``value`` meets the bound (NaN meets none)."""
        op, limit = self.bound
        return OPS[op](value, limit)


def _uniform(values: Iterable[float]) -> float:
    """The one value every point measured; NaN if the points differ."""
    distinct = set(values)
    return distinct.pop() if len(distinct) == 1 else math.nan


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _checked(spec: ScenarioSpec) -> Dict[str, float]:
    """Run ``spec`` at its seed; its metrics, once every checker is ok."""
    result = run_scenario_seed(spec, spec.seeds[0])
    if not result.ok:
        raise RuntimeError(f"checker failure at {spec.name}: "
                           f"{result.checkers}")
    return result.metrics


# ----------------------------------------------------------------------
# Constructive runs (time unit: one inter-group hop unless noted)
# ----------------------------------------------------------------------
#: The columns of :func:`_one_cast`'s result.
DEGREE, INTER, INTRA, DISCARDED, LATENCY = range(5)


@lru_cache(maxsize=None)
def _one_cast(protocol: str, k: int, d: int, groups: int, seed: int
              ) -> Tuple[int, int, int, int, float]:
    """One cast from pid 0 to groups 0..k-1 of ``groups`` groups of ``d``
    processes: (latency degree, inter-, intra-group copies, deliveries
    discarded at non-addressees, worst delivery latency).  Theorem 4.1's
    run is ``("a1", 2, 3, 2, seed)``.  No argument has a default, so a
    cell has one cache key whichever row asks for it."""
    system = build_system(SystemSpec(protocol=protocol,
                                     group_sizes=[d] * groups), seed=seed)
    msg = system.cast(sender=0, dest_groups=tuple(range(k)))
    system.run_quiescent()
    rec = system.meter.record_for(msg.mid)
    discarded = sum(getattr(endpoint, "discarded_deliveries", 0)
                    for endpoint in system.endpoints.values())
    return (rec.latency_degree, system.inter_group_messages,
            system.intra_group_messages, discarded,
            rec.worst_delivery_latency)


@lru_cache(maxsize=None)
def _warm_broadcast(protocol: str, sizes: Tuple[int, ...], seed: int) -> int:
    """Theorem 5.1's run: rounds started, one broadcast at 0.01 while
    round 1's bundling window is open.

    ``propose_delay`` buys that degree by adding its length to the
    round's sim-time latency; under load the same degree comes from the
    second round in flight instead.
    """
    system = build_system(SystemSpec(
        protocol=protocol, group_sizes=sizes,
        protocol_kwargs=(("propose_delay", 0.05),)), seed=seed)
    system.start_rounds()
    msg = system.cast_at(0.01, 0)
    system.run_quiescent()
    return system.meter.latency_degree(msg.mid)


@lru_cache(maxsize=None)
def _late_broadcast(seed: int, gap: float) -> int:
    """Theorem 5.2's run: A2 on 3+3 primed by one broadcast, then a probe
    from pid 3 at ``gap``, long after the system went quiescent."""
    system = build_system(SystemSpec(protocol="a2", group_sizes=[3, 3]),
                          seed=seed)
    system.cast(sender=0)
    probe = system.cast_at(gap, 3)
    system.run_quiescent()
    return system.meter.latency_degree(probe.mid)


@lru_cache(maxsize=None)
def _two_group_cast(protocol: str, sizes: Tuple[int, int], seed: int,
                    offset: float, sender_gid: int) -> int:
    """One cell of the Prop 3.1/3.2 search: a multicast to both groups,
    cast at ``offset`` by the first member of ``sender_gid``."""
    system = build_system(SystemSpec(protocol=protocol, group_sizes=sizes),
                          seed=seed)
    sender = system.topology.members(sender_gid)[0]
    msg = system.cast_at(offset, sender, (0, 1))
    system.run_quiescent()
    return system.meter.latency_degree(msg.mid)


GENUINE_MULTICASTS = ("a1", "a1-noskip", "skeen", "fritzke", "ring",
                      "global")


def _min_genuine_degree(protocols, offsets) -> int:
    return min(_two_group_cast(p, sizes, seed, offset, gid)
               for p in protocols for seed in range(5)
               for sizes in ((2, 2), (3, 3)) for offset in offsets
               for gid in range(2))


@lru_cache(maxsize=None)
def _fig1b(protocol: str, d: int) -> Tuple[int, int, int, float]:
    """Figure 1(b) on 2 groups of ``d``: (steady-state degree, inter-group
    messages, broadcasts, rounds every endpoint ran; NaN if they differ).

    Twelve broadcasts 0.7 apart, round-robin from outside group 0 so the
    sequencer protocols get no colocated-caster freebie.  [1] runs in
    its natural dense regime instead (every process casting, 60
    broadcasts 0.08 apart).  The first, cold broadcast is excluded from
    the degree, which is the minimum over the rest (best case).
    """
    # The window places the cast inside round 1's bundle (Theorem 5.1's
    # favourable run); it adds its length to every round's latency.
    kwargs = (("propose_delay", 0.05),) if protocol == "a2" else ()
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[d, d],
                                     protocol_kwargs=kwargs), seed=1)
    system.start_rounds()
    senders = [p for p in system.topology.processes
               if system.topology.group_of(p) != 0]
    period, count = 0.7, 12
    if protocol == "detmerge":
        senders, period, count = system.topology.processes, 0.08, 60
    plans = periodic_workload(system.topology, period=period, count=count,
                              senders=senders, start=0.01)
    msgs = schedule_workload(system, plans)
    system.run_quiescent()
    degrees = [system.meter.latency_degree(m.mid) for m in msgs[1:]]
    rounds = _uniform(getattr(endpoint, "rounds_executed", 0)
                      for endpoint in system.endpoints.values())
    return (min(x for x in degrees if x is not None),
            system.inter_group_messages, len(msgs), rounds)


def _round_copies(groups: int, d: int) -> int:
    """A2's inter-group copies per round over ``groups`` groups of ``d``:
    each process's bundle to the d(G-1) processes outside its group."""
    return d * d * groups * (groups - 1)


#: A cold broadcast runs two rounds: the one that carries it, and the
#: empty one the paper's lines 22-23 start after a useful round.
COLD_ROUNDS = 2


#: The closed forms of :func:`_one_cast`'s columns, as functions of
#: (k, d, G): protocol -> column -> form.
#:
#: A1 and [2] send the caster's d(k-1) copies, then a timestamp (a
#: proposal) from each of the kd addressees to the d(k-1) outside its
#: group; [5] adds as many uniform R-MCast relays, [10] a cross-group
#: consensus (d(k-1) forwards, d(k-1) accepts, d^2 k(k-1) accepted
#: notices).  [4] sends d^2 per handoff down the k groups and d^2(k-1)
#: finals.  Inside the groups, a group consensus costs d^2+2d-1 copies:
#: A1 runs one per addressed group, and without stage skipping
#: (A1-noskip, [5]) two; the caster adds its d copies into its own
#: group, and [5] has each addressee relay to its d-1 group peers.  A2
#: and broadcast-to-all over it ("nongenuine") send every round's
#: bundles across all G groups, and the latter's d(G-k) bystanders each
#: discard the delivery.  A single-group cast (k = 1) has degree 0.
_A1 = {DEGREE: lambda k, d, g: 2 if k > 1 else 0,
       INTER: lambda k, d, g: d * (k - 1) * (d * k + 1)}
_A2 = {INTER: lambda k, d, g: COLD_ROUNDS * _round_copies(g, d)}
FORMS: Dict[str, Dict[int, Callable[[int, int, int], int]]] = {
    "a1": {**_A1, INTRA: lambda k, d, g: k * (d * d + 2 * d - 1) + d,
           DISCARDED: lambda k, d, g: 0},
    "a1-noskip": {**_A1,
                  INTRA: lambda k, d, g: 2 * k * (d * d + 2 * d - 1) + d},
    "skeen": _A1,
    "fritzke": {DEGREE: _A1[DEGREE],
                INTER: lambda k, d, g: d * (k - 1) * (2 * d * k + 1),
                INTRA: lambda k, d, g: (2 * k * (d * d + 2 * d - 1) + d
                                        + k * d * (d - 1))},
    "global": {DEGREE: lambda k, d, g: 4,
               INTER: lambda k, d, g: d * (k - 1) * (2 * d * k + 3)},
    "ring": {DEGREE: lambda k, d, g: k,
             INTER: lambda k, d, g: 2 * d * d * (k - 1)},
    "a2": _A2,
    "nongenuine": {**_A2, DISCARDED: lambda k, d, g: d * (g - k)},
}
#: Cells (k, d, G).  Figure 1(a): a cast to all k = 2..10 groups of
#: d = 1..6.
FIG1A_GRID = tuple((k, d, k) for k in range(2, 11) for d in range(1, 7))
#: Sections 4.1 / 6 add single-group casts (k = 1, on two groups).
ABLATION_GRID = tuple((1, d, 2) for d in range(1, 7)) + FIG1A_GRID
#: Section 1 and Figure 1's asymptotics: a cast to k = 2 of G = 2..8
#: groups of d = 1..3, with no bystander group at G = 2.
GROUPS_GRID = tuple((2, d, g) for g in range(2, 9) for d in range(1, 4))
SMALL_GRID = tuple(cell for cell in GROUPS_GRID if cell[2] == 2)
BYSTANDER_GRID = tuple(cell for cell in GROUPS_GRID if cell[2] > 2)
ABLATED = ("a1", "a1-noskip", "fritzke")
FIG1B_SIZES = tuple(range(1, 6))
#: Figure 1(b): inter-group copies per broadcast (per round for A2).
FIG1B_FORMS: Dict[str, Callable[[int], int]] = {
    "sequencer": lambda d: d * (2 * d + 3),
    "optimistic": lambda d: 2 * d,
    "a2": lambda d: _round_copies(2, d),
}


def _misfits(protocols: Sequence[str], grid: Iterable[Tuple[int, int, int]],
             *columns: int) -> int:
    """Misses, over the cells (k, d, G) of ``grid``, of one cast of each
    of ``protocols`` against its :data:`FORMS` form in each of
    ``columns`` (A2 addresses all G groups)."""
    return sum(_one_cast(p, g if p == "a2" else k, d, g, 1)[column]
               != FORMS[p][column](k, d, g)
               for p in protocols for k, d, g in grid for column in columns)


def _fig1b_misfits(protocol: str) -> int:
    """Sizes where a run misses its Figure 1(b) form.

    Per broadcast, [13] sends d DATA, 2d SEQ (one numbering m, one
    filling the other sequencer's slot) and 2d^2 ACK, [12] d DATA and d
    ORDER; A2 sends each process's bundle to the other group per round,
    provided every endpoint ran the same rounds.
    """
    unit = 3 if protocol == "a2" else 2
    return sum(_fig1b(protocol, d)[1] != FIG1B_FORMS[protocol](d)
               * _fig1b(protocol, d)[unit] for d in FIG1B_SIZES)


def _latency_spread(protocol: str) -> float:
    """The worst delivery latency of the :data:`GROUPS_GRID` casts:
    largest over smallest."""
    latencies = [_one_cast(protocol, g if protocol == "a2" else k, d, g,
                           1)[LATENCY] for k, d, g in GROUPS_GRID]
    return max(latencies) / min(latencies)


@lru_cache(maxsize=None)
def _rate(rate_per_s: float) -> Dict[str, float]:
    """One ``rate-sweep`` point over a 10 s window."""
    return _checked(rate_scenario(rate_per_s, duration_ms=10_000.0))


def _degree1_window_gain() -> float:
    """At 20 msg/s over 8 s: degree-1 fraction with a 25 ms bundling
    window minus that with the campaign's 5 ms one."""
    narrow = rate_scenario(20.0, duration_ms=8_000.0)
    wide = replace(narrow, protocol_kwargs=(("propose_delay", 25.0),))
    return (_checked(wide)["degree_le1_fraction"]
            - _checked(narrow)["degree_le1_fraction"])


PREDICTORS: Dict[str, Callable] = {
    # Rounds take ~110 ms here, so linger 5 covers ~0.55 s of idle time
    # (too short for the 1.5 s burst gaps) and linger 20 covers ~2.2 s
    # (bridges them).
    "paper": PaperPredictor,
    "linger-5": lambda: LingerPredictor(linger_rounds=5),
    "linger-20": lambda: LingerPredictor(linger_rounds=20),
    "adaptive": lambda: RateAdaptivePredictor(patience=4.0),
}


@lru_cache(maxsize=None)
def _prediction(name: str, seed: int = 1, bursts: int = 6
                ) -> Tuple[int, int, int]:
    """A2 on 3+3 over 100 ms links (1 unit = 1 ms), bursts of 4
    broadcasts 1.5 s apart: (broadcasts, wakeups, empty rounds)."""
    system = build_system(SystemSpec(
        protocol="a2", group_sizes=[3, 3],
        latency=LatencySpec.wan(inter_jitter_ms=2.0),
        # A 5 ms bundling window per round: +5 ms of latency on every
        # round for burst-mates sharing a bundle.
        protocol_kwargs=(("propose_delay", 5.0),
                         ("predictor_factory", PREDICTORS[name])),
    ), seed=seed)
    plans = burst_workload(system.topology, system.rng.stream("wl"),
                           bursts=bursts, burst_size=4, gap=1_500.0,
                           spread=120.0)
    messages = schedule_workload(system, plans)
    system.run_quiescent()
    # A wakeup is a round started from the reactive state: a prediction
    # mistake, and a Theorem 5.2 situation for the cast that forced it.
    wakeups = sum(ep.wakeups for ep in system.endpoints.values()
                  if hasattr(ep, "wakeups"))
    endpoint = system.endpoints[0]
    return (len(messages), wakeups,
            endpoint.rounds_executed - endpoint.useful_rounds)


#: EU(0) - NA(1) - ASIA(2) one-way delays, in ms.
LEGS = {(0, 1): 45.0, (0, 2): 90.0, (1, 2): 75.0}


@lru_cache(maxsize=None)
def _continent_cast(protocol: str, dest: Tuple[int, ...],
                    sender_gid: int) -> Tuple[int, float]:
    """One multicast on the three-continent WAN, 3 processes per group:
    (latency degree, worst-replica latency in ms)."""
    pairwise = {}
    for (a, b), ms in LEGS.items():
        pairwise[(a, b)] = pairwise[(b, a)] = Jittered(ms, 0.0)
    latency = LatencyModel(intra=Jittered(0.5, 0.0),
                           inter=Jittered(100.0, 0.0),
                           pairwise_inter=pairwise)
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[3, 3, 3],
                                     latency=latency), seed=1)
    sender = system.topology.members(sender_gid)[0]
    msg = system.cast(sender=sender, dest_groups=dest)
    system.run_quiescent()
    rec = system.meter.record_for(msg.mid)
    return rec.latency_degree, rec.worst_delivery_latency


DEST_SETS = ((0, 1), (0, 2), (1, 2), (0, 1, 2))


def _wan(protocol: str, dest: Tuple[int, ...]) -> Tuple[int, float]:
    return _continent_cast(protocol, dest, dest[0])


@lru_cache(maxsize=None)
def _crash_run(seed: int, crash: bool, detector_delay: float = 30.0
               ) -> Dict[str, float]:
    """A1 on 3+3 over 100 ms links (1 unit = 1 ms), three casts from pid
    1 to both groups: at 10 (settles before), 300 (races the crash) and
    700 (after re-election).  With ``crash``, group 0's consensus
    leader crashes at 300.5, before it R-Delivers the racing cast."""
    crashes = CrashSchedule({0: 300.5} if crash else {})
    system = build_system(
        SystemSpec(protocol="a1", group_sizes=[3, 3],
                   latency=LatencySpec.wan(),
                   detector_delay=detector_delay,
                   protocol_kwargs=(("retry_timeout", 40.0),)),
        seed=seed, crashes=crashes)
    casts = {name: system.cast_at(at, 1, (0, 1))
             for name, at in (("before", 10.0), ("racing", 300.0),
                              ("after", 700.0))}
    system.run_quiescent()
    check_all(system.log, system.topology, crashes)
    out = {}
    for name, msg in casts.items():
        out[f"deg_{name}"] = system.meter.latency_degree(msg.mid)
        out[f"lat_{name}"] = system.meter.record_for(
            msg.mid).worst_delivery_latency
    return out


def _crash_mean(metric: str, crash: bool, seeds=range(4),
                detector_delay: float = 30.0) -> float:
    return _mean(_crash_run(s, crash, detector_delay)[metric]
                 for s in seeds)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
THEOREM_SEEDS = (1, 2, 3, 7, 11)


CLAIMS: Tuple[Claim, ...] = (
    # -- Theorems 4.1 / 5.1 / 5.2: the constructive runs ----------------
    Claim("thm-4.1", "Thm 4.1",
      "Algorithm A1 delivers a message multicast to two groups with "
      "Δ(m, R) = 2 (3+3 processes, seeds 1, 2, 3, 7, 11).",
      lambda: _uniform(_one_cast("a1", 2, 3, 2, s)[DEGREE]
                       for s in THEOREM_SEEDS),
      ("==", 2)),
    Claim("thm-5.1", "Thm 5.1",
      "Algorithm A2 delivers a broadcast with Δ(m, R) = 1 when the message "
      "rides an already-running round (seeds 1, 2, 3, 7, 11).",
      lambda: _uniform(_warm_broadcast("a2", (3, 3), s)
                       for s in THEOREM_SEEDS),
      ("==", 1)),
    Claim("thm-5.2", "Thm 5.2",
      "When the last message is broadcast after the system has become "
      "quiescent, Algorithm A2 delivers it with Δ(m, R) = 2: the "
      "unavoidable quiescence cost (seeds 1, 2, 3, 7, 11).",
      lambda: _uniform(_late_broadcast(s, 200.0) for s in THEOREM_SEEDS),
      ("==", 2)),
    Claim("thm-5.1-vs-4.1", "Thm 4.1, 5.1",
      "Broadcast is cheaper than multicast: A2's degree (Theorem 5.1) "
      "minus A1's (Theorem 4.1), seed 1.",
      lambda: (_warm_broadcast("a2", (3, 3), 1)
               - _one_cast("a1", 2, 3, 2, 1)[DEGREE]),
      ("<", 0)),
    Claim("thm-5.2-vs-4.1", "Thm 4.1, 5.2",
      "Once quiescent, A2 is no better than the multicast bound: "
      "Theorem 5.2's degree minus Theorem 4.1's, seed 1.",
      lambda: (_late_broadcast(1, 200.0)
               - _one_cast("a1", 2, 3, 2, 1)[DEGREE]),
      ("==", 0)),
    # -- Propositions 3.1-3.3: the counterexample search ------------------
    Claim("prop-3.1-3.2", "Prop 3.1-3.2",
      "No genuine atomic multicast can deliver a message addressed to at "
      "least two groups with latency degree < 2: the lowest degree over "
      "a1, a1-noskip, skeen, fritzke, ring and global, seeds 0-4, groups "
      "2+2 and 3+3, cast at 0 and 0.7 from either group.",
      lambda: _min_genuine_degree(GENUINE_MULTICASTS, (0.0, 0.7)),
      (">=", 2)),
    Claim("prop-3.1-3.2-tight", "Prop 3.1-3.2",
      "A1 achieves 2, so the bound is tight (Theorem 4.1): A1's lowest "
      "degree over the same search, cast at 0.",
      lambda: _min_genuine_degree(("a1",), (0.0,)),
      ("==", 2)),
    Claim("prop-3.1-3.2-control", "Prop 3.1-3.2",
      "The bound is about genuineness, not about the harness: the "
      "broadcast-based multicast reaches degree 1 (2+2, seeds 0-4).",
      lambda: min(_warm_broadcast("nongenuine", (2, 2), s)
                  for s in range(5)),
      ("==", 1)),
    Claim("prop-3.3", "Prop 3.3",
      "A quiescent broadcast pays degree 2 for a message cast after "
      "quiescence: the lowest degree over seeds 0-4 and idle gaps 50, "
      "100, 500.",
      lambda: min(_late_broadcast(s, gap) for s in range(5)
                  for gap in (50.0, 100.0, 500.0)),
      (">=", 2)),
    Claim("prop-3.3-tight", "Prop 3.3",
      "Theorem 5.2's run achieves the bound (gap 200, seeds 0-4).",
      lambda: min(_late_broadcast(s, 200.0) for s in range(5)),
      ("==", 2)),
    # -- Figure 1(a): cells of k = 2..10 groups x d = 1..6 off the form ---
    Claim("fig1a-a1-msgs", "Fig 1(a)",
      "A1 (paper) sends O(k^2 d^2): d(k-1)(dk+1), R-MCast and timestamps.",
      lambda: _misfits(("a1",), FIG1A_GRID, INTER), ("==", 0)),
    Claim("fig1a-a1-degree", "Fig 1(a)",
      "Algorithm A1 (paper) pays latency degree 2.",
      lambda: _misfits(("a1",), FIG1A_GRID, DEGREE), ("==", 0)),
    Claim("fig1a-skeen-msgs", "Fig 1(a)",
      "[2] Skeen sends A1's d(k-1)(dk+1), proposals for timestamps.",
      lambda: _misfits(("skeen",), FIG1A_GRID, INTER), ("==", 0)),
    Claim("fig1a-skeen-degree", "Fig 1(a)",
      "[2] Skeen pays 2, which the paper's corollary shows optimal.",
      lambda: _misfits(("skeen",), FIG1A_GRID, DEGREE), ("==", 0)),
    Claim("fig1a-fritzke-msgs", "Fig 1(a)",
      "[5] Fritzke et al. adds uniform R-MCast's relays: d(k-1)(2dk+1).",
      lambda: _misfits(("fritzke",), FIG1A_GRID, INTER), ("==", 0)),
    Claim("fig1a-fritzke-degree", "Fig 1(a)",
      "[5] Fritzke et al. pays latency degree 2.",
      lambda: _misfits(("fritzke",), FIG1A_GRID, DEGREE), ("==", 0)),
    Claim("fig1a-global-msgs", "Fig 1(a)",
      "[10] Rodrigues et al. adds a cross-group consensus: d(k-1)(2dk+3).",
      lambda: _misfits(("global",), FIG1A_GRID, INTER), ("==", 0)),
    Claim("fig1a-global-degree", "Fig 1(a)",
      "[10] Rodrigues et al. pays latency degree 4.",
      lambda: _misfits(("global",), FIG1A_GRID, DEGREE), ("==", 0)),
    Claim("fig1a-ring-msgs", "Fig 1(a)",
      "[4] Delporte & Fauconnier's ring hands off: O(kd^2), 2d^2(k-1).",
      lambda: _misfits(("ring",), FIG1A_GRID, INTER), ("==", 0)),
    Claim("fig1a-ring-degree", "Fig 1(a)",
      "[4] pays k; the paper's k+1 counts a caster outside the ring.",
      lambda: _misfits(("ring",), FIG1A_GRID, DEGREE), ("==", 0)),
    # -- Figure 1(b): 2 groups of d (msgs: sizes d = 1..5 off the form) --
    Claim("fig1b-a2-degree", "Fig 1(b)",
      "Algorithm A2 (paper) reaches latency degree 1 (steady-state best "
      "case, first, cold message excluded).",
      lambda: _fig1b("a2", 3)[0], ("==", 1)),
    Claim("fig1b-detmerge-degree", "Fig 1(b)",
      "[1] Aguilera & Strom reaches degree 1; its model (reliable links, "
      "crash-free publishers, infinite streams) is different, so this "
      "does not contradict the genuine multicast bound.",
      lambda: _fig1b("detmerge", 3)[0], ("==", 1)),
    Claim("fig1b-optimistic-degree", "Fig 1(b)",
      "[12] Sousa et al.'s final delivery pays degree 2.",
      lambda: _fig1b("optimistic", 3)[0], ("==", 2)),
    Claim("fig1b-sequencer-degree", "Fig 1(b)",
      "[13] Vicente & Rodrigues pays degree 2.",
      lambda: _fig1b("sequencer", 3)[0], ("==", 2)),
    Claim("fig1b-a2-vs-degree-two", "Fig 1(b)",
      "A2 beats both degree-two protocols: A2's degree minus the lower "
      "of [12]'s and [13]'s.",
      lambda: _fig1b("a2", 3)[0] - min(_fig1b("optimistic", 3)[0],
                                        _fig1b("sequencer", 3)[0]),
      ("<", 0)),
    Claim("fig1b-a2-msgs", "Fig 1(b)",
      "Algorithm A2 sends O(n^2): 2d^2 inter-group copies per round, a "
      "bundle from each process.",
      lambda: _fig1b_misfits("a2"), ("==", 0)),
    Claim("fig1b-sequencer-msgs", "Fig 1(b)",
      "[13] sends O(n^2): d(2d+3) inter-group copies per broadcast, "
      "2d^2 of them ACKs.",
      lambda: _fig1b_misfits("sequencer"), ("==", 0)),
    Claim("fig1b-optimistic-msgs", "Fig 1(b)",
      "Footnote 7: non-uniform [12] sends n DATA + n ORDER per broadcast, "
      "half inter-group: n = 2d exactly (6 <= 7 at n = 6).",
      lambda: _fig1b_misfits("optimistic"), ("==", 0)),
    Claim("fig1b-linear-vs-quadratic", "Fig 1(b)",
      "[1]'s dense, load-dependent regime has no closed form; per "
      "broadcast, its inter-group messages over A2's at d = 3.",
      lambda: ((_fig1b("detmerge", 3)[1] / _fig1b("detmerge", 3)[2])
               / (_fig1b("a2", 3)[1] / _fig1b("a2", 3)[2])),
      ("<", 1)),
    # -- Section 5.3: A2's broadcast rate over 100 ms links -------------
    Claim("rate-useful-rounds", "§5.3",
      "The paper: with 100 ms inter-group latency, 10 msg/s suffices for "
      "A2 never to become reactive, with every round useful.  With "
      "Poisson arrivals 10 msg/s does not reach it (the rate-sweep "
      "campaign, seed 1, 20 s, reads 0.71 of rounds useful); the "
      "fraction of useful rounds at 50 msg/s (10 s).",
      lambda: _rate(50.0)["useful_round_fraction"], (">", 0.9)),
    Claim("rate-useful-rounds-rise", "§5.3",
      "The useful-round fraction rises from 1 to 10 to 50 msg/s: the "
      "smaller of the two steps.",
      lambda: min(_rate(10.0)["useful_round_fraction"]
                  - _rate(1.0)["useful_round_fraction"],
                  _rate(50.0)["useful_round_fraction"]
                  - _rate(10.0)["useful_round_fraction"]),
      (">", 0)),
    Claim("rate-low-rate-wastes-rounds", "§5.3",
      "Below the rate, A2 keeps going quiescent and wastes rounds: the "
      "useful-round fraction at 1 msg/s.",
      lambda: _rate(1.0)["useful_round_fraction"], ("<", 0.8)),
    Claim("rate-latency-flat", "§5.3",
      "Rounds amortise over messages, so throughput scales without "
      "hurting latency: mean latency at 50 msg/s over that at 1 msg/s.",
      lambda: (_rate(50.0)["latency_mean_mean"]
               / _rate(1.0)["latency_mean_mean"]),
      ("<", 1.5)),
    Claim("rate-latency-ms", "§5.3",
      "Latency is of the order of a round trip of the 100 ms links, not "
      "more: mean latency (ms) at 50 msg/s.  (The campaign reads 141-178 "
      "ms: 0.7-0.9 of the 200 ms round trip, or 1.4-1.8 one-way delays.)",
      lambda: _rate(50.0)["latency_mean_mean"], ("<", 400.0)),
    Claim("rate-delivered", "§5.3",
      "Every rate delivers messages: the fewest metered at 1, 10, 50 "
      "msg/s.",
      lambda: min(int(_rate(r)["metered"]) for r in (1.0, 10.0, 50.0)),
      (">", 0)),
    Claim("rate-degree-one", "§5.3",
      "Some messages catch the open bundling window and ride at degree "
      "1: their fraction at 50 msg/s.",
      lambda: _rate(50.0)["degree_le1_fraction"], (">", 0)),
    Claim("rate-degree-one-window", "§5.3",
      "The degree-1 fraction tracks propose_delay / round duration: a "
      "25 ms window's fraction minus the 5 ms one's (20 msg/s, 8 s).",
      _degree1_window_gain, (">", 0)),
    # -- Section 1: genuine multicast vs broadcast-to-all (GROUPS_GRID) --
    Claim("tradeoff-broadcast-degree", "§1",
      "If latency is the main concern, every operation should be "
      "broadcast to all groups: broadcast-to-all over A2 reaches degree "
      "1 riding a running round on 6 groups of 2 (seeds 1, 2, 3, 7, 11).",
      lambda: _uniform(_warm_broadcast("nongenuine", (2,) * 6, s)
                       for s in THEOREM_SEEDS),
      ("==", 1)),
    Claim("tradeoff-genuine-degree", "§1",
      "Any genuine multicast algorithm will have a latency degree of at "
      "least two: cells where A1's degree is not 2.",
      lambda: _misfits(("a1",), GROUPS_GRID, DEGREE), ("==", 0)),
    Claim("tradeoff-broadcast-msgs", "§1",
      "Broadcast-to-all has a high message complexity: d^2 G(G-1) "
      "inter-group copies per round, two rounds for a cold cast, against "
      "A1's d(2d+1); cells where either misses its form.",
      lambda: _misfits(("nongenuine", "a1"), GROUPS_GRID, INTER), ("==", 0)),
    Claim("tradeoff-broadcast-discards", "§1",
      "Broadcast-to-all drags every process into every operation: cells "
      "where the d(G-2) bystanders do not each discard one delivery.",
      lambda: _misfits(("nongenuine",), GROUPS_GRID, DISCARDED), ("==", 0)),
    Claim("tradeoff-genuine-discards", "§1",
      "Genuineness keeps bystander groups idle: cells where A1 discards "
      "a delivery.",
      lambda: _misfits(("a1",), GROUPS_GRID, DISCARDED), ("==", 0)),
    Claim("tradeoff-gap-widens", "§1",
      "More groups, more bystanders: broadcast-to-all's copies grow as "
      "G(G-1) while A1's stay put; cells with bystanders (G = 3..8) "
      "where either misses its form.",
      lambda: _misfits(("nongenuine", "a1"), BYSTANDER_GRID, INTER),
      ("==", 0)),
    # -- Sections 4.1 / 6: A1's stage skipping vs [5] (ABLATION_GRID) ----
    Claim("ablation-degree", "§4.1/§6",
      "'This has no impact on the latency degree': cells where A1, A1 "
      "without stage skipping or [5] misses degree 2 (0 for one group).",
      lambda: _misfits(ABLATED, ABLATION_GRID, DEGREE), ("==", 0)),
    Claim("ablation-inter", "§4.1/§6",
      "'... or on the number of inter-group messages sent': cells where A1 "
      "or A1 without skipping misses d(k-1)(dk+1).",
      lambda: _misfits(("a1", "a1-noskip"), ABLATION_GRID, INTER), ("==", 0)),
    Claim("ablation-intra", "§4.1/§6",
      "'However, our algorithm sends fewer intra-group messages': cells "
      "where A1 misses k(d^2+2d-1)+d or A1 without skipping "
      "2k(d^2+2d-1)+d.",
      lambda: _misfits(("a1", "a1-noskip"), ABLATION_GRID, INTRA), ("==", 0)),
    Claim("ablation-uniform-rmcast", "§4.1/§6",
      "[5]'s uniform reliable multicast relays: cells where [5] misses "
      "d(k-1)(2dk+1) inter- or 2k(d^2+2d-1)+d+kd(d-1) intra-group copies.",
      lambda: _misfits(("fritzke",), ABLATION_GRID, INTER, INTRA), ("==", 0)),
    Claim("ablation-total", "§4.1/§6",
      "Total messages strictly decrease with each optimisation: cells "
      "where A1, A1 without skipping or [5] misses its inter- or "
      "intra-group form.",
      lambda: _misfits(ABLATED, ABLATION_GRID, INTER, INTRA), ("==", 0)),
    # -- Section 5.3 extension: quiescence prediction strategies ----------
    Claim("prediction-linger-bridges", "§5.3 extension",
      "A linger long enough to bridge the burst gap slashes wakeups: "
      "linger 20's over the paper rule's.",
      lambda: _prediction("linger-20")[1] / _prediction("paper")[1],
      ("<", 0.5)),
    Claim("prediction-short-linger", "§5.3 extension",
      "A hedge shorter than the gap buys nothing but idle rounds: linger "
      "5's wakeups minus the paper rule's.",
      lambda: _prediction("linger-5")[1] - _prediction("paper")[1],
      ("==", 0)),
    Claim("prediction-adaptive", "§5.3 extension",
      "The rate-adaptive predictor beats the paper rule: its wakeups "
      "over the paper rule's.",
      lambda: _prediction("adaptive")[1] / _prediction("paper")[1],
      ("<", 1)),
    Claim("prediction-linger-cost", "§5.3 extension",
      "Lingering costs empty rounds: linger 20's minus the paper rule's.",
      lambda: _prediction("linger-20")[2] - _prediction("paper")[2],
      (">", 0)),
    Claim("prediction-empty-rounds-5", "§5.3 extension",
      "Empty rounds grow with the linger: linger 5's minus the paper "
      "rule's.",
      lambda: _prediction("linger-5")[2] - _prediction("paper")[2],
      (">", 0)),
    Claim("prediction-empty-rounds-20", "§5.3 extension",
      "... and linger 20's minus linger 5's.",
      lambda: _prediction("linger-20")[2] - _prediction("linger-5")[2],
      (">=", 0)),
    Claim("prediction-all-delivered", "§5.3 extension",
      "Every strategy delivers the same workload: the number of "
      "distinct broadcast counts.",
      lambda: len({_prediction(name)[0] for name in PREDICTORS}),
      ("==", 1)),
    Claim("prediction-quiescent", "§5.3 extension",
      "Bounded strategies keep runs quiescent (Proposition A.9): the "
      "fewest broadcasts delivered by a run that ends (seed 2, 3 "
      "bursts).",
      lambda: min(_prediction(name, 2, 3)[0] for name in PREDICTORS),
      (">", 0)),
    # -- Section 6 remark: the topology decides the best algorithm -------
    Claim("wan-a1-slowest-leg", "§6 remark",
      "A1's two hops run in parallel, costing ~2x the slowest leg (EU-NA "
      "45, NA-ASIA 75, EU-ASIA 90 ms): worst distance (ms) from it over "
      "EU+NA, EU+ASIA, NA+ASIA and all three.",
      lambda: max(abs(_wan("a1", dest)[1]
                      - 2 * max(LEGS[pair] for pair in LEGS
                                if set(pair) <= set(dest)))
                  for dest in DEST_SETS),
      ("<", 15.0)),
    Claim("wan-a1-three", "§6 remark",
      "Three continents cost A1 no more than the worst pair: all three "
      "minus EU+ASIA (ms).",
      lambda: _wan("a1", (0, 1, 2))[1] - _wan("a1", (0, 2))[1],
      ("<=", 15.0)),
    Claim("wan-ring-two", "§6 remark",
      "At k = 2 the ring uses the same legs as A1: ring over A1 latency, "
      "worst pair.",
      lambda: max(_wan("ring", dest)[1] / _wan("a1", dest)[1]
                  for dest in DEST_SETS[:3]),
      ("<", 1.1)),
    Claim("wan-ring-sum", "§6 remark",
      "The ring's handoffs are sequential: all three continents cost "
      "EU->NA 45 + NA->ASIA 75 + ASIA->EU 90 ~= 210 ms; above 195.",
      lambda: _wan("ring", (0, 1, 2))[1], (">", 195.0)),
    Claim("wan-ring-sum-cap", "§6 remark",
      "... and below 235 ms.",
      lambda: _wan("ring", (0, 1, 2))[1], ("<", 235.0)),
    Claim("wan-ring-loses", "§6 remark",
      "Which algorithm is best depends on the topology: at three groups "
      "the ring's latency over A1's.",
      lambda: _wan("ring", (0, 1, 2))[1] / _wan("a1", (0, 1, 2))[1],
      (">", 1.1)),
    Claim("wan-ring-degree", "§6 remark",
      "The ring's degree matches the destination count at three groups.",
      lambda: _wan("ring", (0, 1, 2))[0], ("==", 3)),
    Claim("wan-a1-degree", "§6 remark",
      "A1's degree stays 2 at three groups.",
      lambda: _wan("a1", (0, 1, 2))[0], ("==", 2)),
    Claim("wan-ring-entry-hop", "§6 remark",
      "A caster outside the ring's first group pays the entry leg: its "
      "degree minus an inside caster's (NA+ASIA).",
      lambda: (_continent_cast("ring", (1, 2), 0)[0]
               - _continent_cast("ring", (1, 2), 1)[0]),
      ("==", 1)),
    Claim("wan-ring-entry-latency", "§6 remark",
      "... and its latency minus the inside caster's (ms).",
      lambda: (_continent_cast("ring", (1, 2), 0)[1]
               - _continent_cast("ring", (1, 2), 1)[1]),
      (">", 0)),
    # -- Figure 1 asymptotics: one cast over G groups (GROUPS_GRID) -----
    Claim("scale-a1-flat-in-groups", "Fig 1 asymptotics",
      "Genuineness keeps bystander groups out: cells where A1's "
      "inter-group copies are not d(2d+1), whatever G.",
      lambda: _misfits(("a1",), GROUPS_GRID, INTER), ("==", 0)),
    Claim("scale-a2-grows-with-groups", "Fig 1 asymptotics",
      "A2 must involve every group: cells where a cold broadcast misses "
      "two rounds of d^2 G(G-1) inter-group copies.",
      lambda: _misfits(("a2",), GROUPS_GRID, INTER), ("==", 0)),
    Claim("scale-crossover", "Fig 1 asymptotics",
      "With bystanders (G = 3..8) genuine multicast is much cheaper per "
      "op: cells where A2 or A1 misses its form.",
      lambda: _misfits(("a2", "a1"), BYSTANDER_GRID, INTER), ("==", 0)),
    Claim("scale-small-system", "Fig 1 asymptotics",
      "At 2 groups the two coincide (k = G) and broadcast is fine: cells "
      "where A2 or A1 misses its form.",
      lambda: _misfits(("a2", "a1"), SMALL_GRID, INTER), ("==", 0)),
    Claim("scale-a1-latency-flat", "Fig 1 asymptotics",
      "Hops, not system size, set the latency: A1's worst delivery "
      "latency over G = 2..8 x d = 1..3, largest over smallest.",
      lambda: _latency_spread("a1"), ("<", 1.01)),
    Claim("scale-a2-latency-flat", "Fig 1 asymptotics",
      "A2's worst delivery latency over the same cells, largest over "
      "smallest.",
      lambda: _latency_spread("a2"), ("<", 1.01)),
    # -- Crashes cost time, never degree (A1, 100 ms WAN, seeds 0-3) -----
    Claim("crash-degree", "Thm 4.1, crashes",
      "Failures hurt liveness timing, never the logical structure: the "
      "degree of every cast, with and without a leader crash.",
      lambda: _uniform(_crash_run(s, crash, 30.0)[f"deg_{name}"]
                       for s in range(4) for crash in (False, True)
                       for name in ("before", "racing", "after")),
      ("==", 2)),
    Claim("crash-undisturbed", "Thm 4.1, crashes",
      "Casts away from the crash are undisturbed: |crash - clean| mean "
      "latency (ms), worst of before and after.",
      lambda: max(abs(_crash_mean(m, True) - _crash_mean(m, False))
                  for m in ("lat_before", "lat_after")),
      ("<", 30.0)),
    Claim("crash-fast-detection", "Thm 4.1, crashes",
      "Re-election (~70 ms) hides behind the WAN round trip (~200 ms): "
      "|crash - clean| mean latency of the racing cast (ms), detector "
      "delay 30.",
      lambda: abs(_crash_mean("lat_racing", True)
                  - _crash_mean("lat_racing", False)),
      ("<", 15.0)),
    Claim("crash-slow-detection", "Thm 4.1, crashes",
      "Once detection plus retries outlast the round trip the crash "
      "shows: racing cast, detector delay 220 minus no crash (ms, seeds "
      "0-2).",
      lambda: (_crash_mean("lat_racing", True, range(3), 220.0)
               - _crash_mean("lat_racing", False, range(3))),
      (">", 80.0)),
    Claim("crash-detector-scaling", "Thm 4.1, crashes",
      "The cost then scales with the detection delay: racing cast, "
      "detector delay 350 minus 220 (ms, seeds 0-2).",
      lambda: (_crash_mean("lat_racing", True, range(3), 350.0)
               - _crash_mean("lat_racing", True, range(3), 220.0)),
      (">", 60.0)),
)
