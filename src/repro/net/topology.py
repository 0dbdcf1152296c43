"""Wide-area topology: groups of processes and link-latency models.

The paper's system model (Section 2.1) partitions the processes into
disjoint, non-empty groups.  Communication inside a group is fast;
communication across groups is orders of magnitude slower.  This module
captures both the membership structure (:class:`Topology`) and the
latency distributions (:class:`LatencyModel` and friends).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Latency distributions
# ----------------------------------------------------------------------
class Distribution:
    """A sampleable positive-valued distribution."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def lower_bound(self) -> float:
        """Infimum of the support (read by ``min_inter_group``)."""
        raise NotImplementedError


@dataclass
class Fixed(Distribution):
    """Always returns ``value``."""

    value: float

    def sample(self, rng: random.Random) -> float:
        return self.value

    def lower_bound(self) -> float:
        return self.value


@dataclass
class Uniform(Distribution):
    """Uniform on ``[lo, hi]``."""

    lo: float
    hi: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)

    def lower_bound(self) -> float:
        return self.lo


@dataclass
class Jittered(Distribution):
    """``base`` plus exponential jitter with mean ``jitter``.

    A reasonable stand-in for WAN latency: a propagation floor plus a
    queueing tail.
    """

    base: float
    jitter: float

    def sample(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.expovariate(1.0 / self.jitter)

    def lower_bound(self) -> float:
        return self.base


# ----------------------------------------------------------------------
# Latency model
# ----------------------------------------------------------------------
class LatencyModel:
    """Maps a (source group, destination group) pair to a latency sample."""

    def __init__(
        self,
        intra: Distribution,
        inter: Distribution,
        pairwise_inter: Dict[Tuple[int, int], Distribution] = None,
    ) -> None:
        """Create a two-level latency model.

        Args:
            intra: Latency distribution within a group.
            inter: Default latency distribution between distinct groups.
            pairwise_inter: Optional per-(gid, gid) overrides, e.g. to
                model three continents with asymmetric link latencies.
        """
        self.intra = intra
        self.inter = inter
        self.pairwise_inter = dict(pairwise_inter or {})

    def sample(self, src_gid: int, dst_gid: int, rng: random.Random) -> float:
        """Sample the one-way latency from ``src_gid`` to ``dst_gid``."""
        if src_gid == dst_gid:
            return self.intra.sample(rng)
        dist = self.pairwise_inter.get((src_gid, dst_gid), self.inter)
        return dist.sample(rng)

    def distribution(self, src_gid: int, dst_gid: int) -> Distribution:
        """The distribution governing this (source, destination) pair."""
        if src_gid == dst_gid:
            return self.intra
        return self.pairwise_inter.get((src_gid, dst_gid), self.inter)

    def fixed_delay(self, src_gid: int, dst_gid: int) -> Optional[float]:
        """The pair's constant delay, or None if it needs sampling.

        A :class:`Fixed` link draws nothing from the RNG, so callers may
        reuse this value per copy without perturbing any random stream.
        """
        dist = self.distribution(src_gid, dst_gid)
        if type(dist) is Fixed:
            return dist.value
        return None

    def has_fixed_links(self) -> bool:
        """Whether any link of the model has a constant delay."""
        return any(type(dist) is Fixed for dist in (
            self.intra, self.inter, *self.pairwise_inter.values()))

    def min_inter_group(self) -> float:
        """Smallest delay any inter-group link can ever produce.

        The reliable transport scales its ack window and retransmission
        timeout from it.

        Raises:
            ValueError: When the bound is not strictly positive or no
                inter-group distribution is configured.
        """
        if self.inter is None:
            raise ValueError("latency model has no inter-group distribution")
        bounds = [self.inter.lower_bound()]
        bounds.extend(dist.lower_bound()
                      for dist in self.pairwise_inter.values())
        lookahead = min(bounds)
        if lookahead <= 0:
            raise ValueError(
                f"inter-group latency lower bound is {lookahead!r}, "
                f"not strictly positive"
            )
        return lookahead

    @classmethod
    def wan(
        cls,
        intra_ms: float = 1.0,
        inter_ms: float = 100.0,
        intra_jitter_ms: float = 0.1,
        inter_jitter_ms: float = 5.0,
    ) -> "LatencyModel":
        """The paper's canonical setting: ~1 ms LAN, ~100 ms WAN links."""
        return cls(
            intra=Jittered(intra_ms, intra_jitter_ms),
            inter=Jittered(inter_ms, inter_jitter_ms),
        )

    @classmethod
    def logical(cls) -> "LatencyModel":
        """Unit-free model for pure latency-degree experiments.

        Intra-group messages take a negligible-but-nonzero time so the
        event order stays well defined; inter-group messages take one
        time unit.
        """
        return cls(intra=Fixed(0.001), inter=Fixed(1.0))


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------
class Topology:
    """Disjoint groups of consecutively numbered processes.

    ``Topology([3, 3, 2])`` creates processes 0..7 with groups
    ``g0 = {0,1,2}``, ``g1 = {3,4,5}``, ``g2 = {6,7}``.
    """

    def __init__(self, group_sizes: Sequence[int]) -> None:
        if not group_sizes:
            raise ValueError("at least one group is required")
        if any(size <= 0 for size in group_sizes):
            raise ValueError("groups must be non-empty")
        self._members: List[List[int]] = []
        self._group_of: Dict[int, int] = {}
        pid = 0
        for gid, size in enumerate(group_sizes):
            members = list(range(pid, pid + size))
            self._members.append(members)
            for member in members:
                self._group_of[member] = gid
            pid += size
        self.n_processes = pid
        #: Read-only pid -> gid mapping for hot paths (the network stamps
        #: every message copy with it); treat as immutable.
        self.group_index: Dict[int, int] = self._group_of
        self._pog_cache: Dict[Tuple[int, ...], List[int]] = {}

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Number of groups."""
        return len(self._members)

    @property
    def group_ids(self) -> List[int]:
        """All group ids, ascending."""
        return list(range(len(self._members)))

    @property
    def processes(self) -> List[int]:
        """All process ids, ascending."""
        return list(range(self.n_processes))

    def members(self, gid: int) -> List[int]:
        """Process ids belonging to group ``gid``."""
        return list(self._members[gid])

    def group_of(self, pid: int) -> int:
        """Group id of process ``pid``."""
        return self._group_of[pid]

    def same_group(self, a: int, b: int) -> bool:
        """True when processes ``a`` and ``b`` share a group."""
        return self._group_of[a] == self._group_of[b]

    def processes_of_groups(self, gids) -> List[int]:
        """All processes in the given groups, ascending.

        The sort/dedup/flatten is memoised per destination set
        (protocols resolve the same sets for every message); callers
        get a fresh copy, so mutating the result stays safe.
        """
        key = gids if type(gids) is tuple else tuple(gids)
        cached = self._pog_cache.get(key)
        if cached is None:
            cached = []
            for gid in sorted(set(key)):
                cached.extend(self._members[gid])
            self._pog_cache[key] = cached
        return list(cached)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(m) for m in self._members]
        return f"Topology(groups={sizes})"
