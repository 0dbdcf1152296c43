"""Workload generators: who casts what, where, and when.

A workload is a deterministic (seeded) list of :class:`CastPlan` items —
(time, sender, destination groups, payload) — that the experiment
runtime schedules onto a built system.  Separating plan generation from
execution keeps runs reproducible and lets the same plan drive different
protocols in a comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.interfaces import SLOTTED, frozen_rows
from repro.net.topology import Topology


@dataclass(frozen=True, **SLOTTED)
class CastPlan:
    """One planned A-XCast."""

    time: float
    sender: int
    dest_groups: Tuple[int, ...]
    payload: object = None


# A destination chooser maps (rng, topology, sender) to a group tuple.
# One whose ``draws_nothing`` attribute is true never touches the rng,
# and its answer depends on the sender's group at most: a plan asks it
# once per sender, not once per cast.
DestinationChooser = Callable[[random.Random, Topology, int], Tuple[int, ...]]


# ----------------------------------------------------------------------
# Destination distributions
# ----------------------------------------------------------------------
def all_groups(rng: random.Random, topology: Topology,
               sender: int) -> Tuple[int, ...]:
    """Broadcast: every group (the only choice for A2 et al.)."""
    return tuple(range(topology.n_groups))


all_groups.draws_nothing = True


def _picker(destinations: DestinationChooser, rng: random.Random,
            topology: Topology, senders: Sequence[int]
            ) -> Callable[[int], Tuple[int, ...]]:
    """sender -> the destinations of its next cast, for one plan.

    A chooser that draws nothing is asked here, once per sender; any
    other is called per cast, so its draws interleave with the plan's
    own exactly as they always have.  Either way every cast of the
    plan to the same groups shares one tuple.
    """
    seen: dict = {}
    if getattr(destinations, "draws_nothing", False):
        dest_of: dict = {}
        for sender in senders:
            dest = destinations(rng, topology, sender)
            dest_of[sender] = seen.setdefault(dest, dest)
        return dest_of.__getitem__

    def pick(sender):
        dest = destinations(rng, topology, sender)
        return seen.setdefault(dest, dest)

    return pick


def fixed_groups(groups: Sequence[int]) -> DestinationChooser:
    """Always the given groups."""
    dest = tuple(sorted(set(groups)))

    def choose(rng, topology, sender):
        return dest

    choose.draws_nothing = True
    return choose


def uniform_k_groups(k: int, include_sender_group: bool = True
                     ) -> DestinationChooser:
    """A uniformly random set of ``k`` groups per message.

    With ``include_sender_group`` the caster's own group is always one
    of the k (the typical partial-replication pattern: update your own
    partition plus k-1 remote ones).
    """

    # Per topology: the group ids, and per sender group the others —
    # built once, not on every draw (the draws themselves are unchanged).
    pools: dict = {}

    def choose(rng: random.Random, topology: Topology,
               sender: int) -> Tuple[int, ...]:
        pool = pools.get(topology)
        if pool is None:
            gids = list(topology.group_ids)
            if k > len(gids):
                raise ValueError(f"k={k} exceeds group count {len(gids)}")
            pool = pools[topology] = (gids, {
                own: [g for g in gids if g != own] for own in gids})
        gids, others = pool
        if include_sender_group:
            own = topology.group_of(sender)
            picked = rng.sample(others[own], k - 1) + [own]
        else:
            picked = rng.sample(gids, k)
        return tuple(sorted(picked))

    # One group with the sender's own: ``rng.sample(..., 0)`` draws
    # nothing, and the answer is the sender's group.
    choose.draws_nothing = k == 1 and include_sender_group
    return choose


def zipf_group_count(max_k: int, skew: float = 1.5,
                     include_sender_group: bool = True
                     ) -> DestinationChooser:
    """Mostly-local traffic: the destination count follows a Zipf law.

    Most messages go to 1 group, a few to 2, rarely to ``max_k`` —
    the access pattern the paper's partial-replication motivation
    assumes.
    """
    weights = [1.0 / (i ** skew) for i in range(1, max_k + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    by_count = [uniform_k_groups(k, include_sender_group)
                for k in range(1, max_k + 1)]

    def choose(rng: random.Random, topology: Topology,
               sender: int) -> Tuple[int, ...]:
        u = rng.random()
        k = next(i + 1 for i, c in enumerate(cumulative) if u <= c)
        return by_count[k - 1](rng, topology, sender)

    return choose


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def poisson_workload(
    topology: Topology,
    rng: random.Random,
    rate: float,
    duration: float,
    destinations: Optional[DestinationChooser] = None,
    senders: Optional[Sequence[int]] = None,
    start: float = 0.0,
) -> List[CastPlan]:
    """Poisson arrivals at ``rate`` messages per time unit.

    Senders are drawn uniformly from ``senders`` (default: everyone).
    Per cast the rng draws the gap, then the sender, then whatever the
    destination chooser draws; a chooser that draws nothing (``all``,
    ``fixed``, one group with the sender's) is asked once per sender
    before the first draw.  Row ``i`` carries payload ``i``.

    Raises:
        ValueError: If ``rate`` is not strictly positive (expovariate
            would otherwise fail with an opaque error mid-generation).
    """
    if rate <= 0:
        raise ValueError(
            f"poisson_workload needs a positive rate, got {rate!r}"
        )
    senders = list(senders) if senders is not None else topology.processes
    pick = _picker(destinations or all_groups, rng, topology, senders)
    expovariate, choice = rng.expovariate, rng.choice
    times: List[float] = []
    who: List[int] = []
    dests: List[Tuple[int, ...]] = []
    end = start + duration
    t = start
    while True:
        t += expovariate(rate)
        if t >= end:
            break
        sender = choice(senders)
        times.append(t)
        who.append(sender)
        dests.append(pick(sender))
    return frozen_rows(CastPlan, times, who, dests, range(len(times)))


def periodic_workload(
    topology: Topology,
    period: float,
    count: int,
    destinations: Optional[DestinationChooser] = None,
    senders: Optional[Sequence[int]] = None,
    start: float = 0.0,
    rng: Optional[random.Random] = None,
) -> List[CastPlan]:
    """``count`` casts spaced exactly ``period`` apart, round-robin
    over ``senders``.

    Raises:
        ValueError: If ``period`` is not strictly positive or ``count``
            is negative (matching :func:`poisson_workload`'s guard —
            a zero period would stack every cast on one instant by
            accident, and a negative count silently yields nothing).
    """
    if period <= 0:
        raise ValueError(
            f"periodic_workload needs a positive period, got {period!r}"
        )
    if count < 0:
        raise ValueError(
            f"periodic_workload needs a non-negative count, got {count!r}"
        )
    senders = list(senders) if senders is not None else topology.processes
    rng = rng or random.Random(0)
    pick = _picker(destinations or all_groups, rng, topology, senders)
    who = [senders[i % len(senders)] for i in range(count)]
    return frozen_rows(CastPlan, [start + i * period for i in range(count)],
                       who, list(map(pick, who)), range(count))


def burst_workload(
    topology: Topology,
    rng: random.Random,
    bursts: int,
    burst_size: int,
    gap: float,
    destinations: Optional[DestinationChooser] = None,
    senders: Optional[Sequence[int]] = None,
    spread: float = 0.5,
    start: float = 0.0,
) -> List[CastPlan]:
    """Bursty traffic: ``bursts`` clumps of ``burst_size`` casts,
    separated by idle ``gap`` — the adversarial pattern for quiescence
    prediction (paper Section 5.3).

    Raises:
        ValueError: If ``bursts``/``burst_size`` is not strictly
            positive, or ``gap``/``spread`` is negative (matching
            :func:`poisson_workload`'s guard).
    """
    if bursts <= 0:
        raise ValueError(
            f"burst_workload needs a positive burst count, got {bursts!r}"
        )
    if burst_size <= 0:
        raise ValueError(
            f"burst_workload needs a positive burst size, got {burst_size!r}"
        )
    if gap < 0:
        raise ValueError(
            f"burst_workload needs a non-negative gap, got {gap!r}"
        )
    if spread < 0:
        raise ValueError(
            f"burst_workload needs a non-negative spread, got {spread!r}"
        )
    senders = list(senders) if senders is not None else topology.processes
    pick = _picker(destinations or all_groups, rng, topology, senders)
    choice, uniform = rng.choice, rng.uniform
    times: List[float] = []
    who: List[int] = []
    dests: List[Tuple[int, ...]] = []
    for b in range(bursts):
        base = start + b * gap
        for _ in range(burst_size):
            sender = choice(senders)
            times.append(base + uniform(0.0, spread))
            who.append(sender)
            dests.append(pick(sender))
    payloads = [(b, i) for b in range(bursts) for i in range(burst_size)]
    plans = frozen_rows(CastPlan, times, who, dests, payloads)
    plans.sort(key=attrgetter("time"))
    return plans


def schedule_workload(system, plans: List[CastPlan]) -> List:
    """Schedule every planned cast on a built system; returns messages.

    The whole plan is one kernel plan (:meth:`System.cast_plan`): it
    holds one queued event however long it is, and a plan with any time
    in the past raises before a message is made or a cast queued.
    """
    return system.cast_plan(plans)
