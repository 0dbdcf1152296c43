"""Key partitioning for the transactional store.

The paper motivates genuine atomic multicast with partial replication:
each group replicates a subset of the application's data, and an
operation should involve only the groups that store the keys it
touches.  :class:`PartitionMap` is that key → group assignment.

**Versioned-ownership contract.**  The assignment is *not* immutable:
elastic repartitioning (:mod:`repro.reconfig`) moves key ranges
between groups at totally-ordered points, mutating a replica's map
view through :meth:`apply_assignments`.  Every mutation bumps
:attr:`version` and invalidates the fallback memo, so a cached answer
can never outlive the epoch it was computed in.  Consumers that cache
``group_of`` results themselves must key their caches by
``(map.version, key)`` or subscribe to the same delivery stream the
map is mutated from.

A key with no explicit assignment belongs to its owner on the
consistent-hash ring (:class:`repro.reconfig.ring.HashRing`) when the
map has one, else to ``sha256 % n_groups``.  Explicit assignments
always take precedence — migrations are recorded as explicit overrides
on top of the fallback, so the ring itself never changes mid-run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Tuple

from repro.net.topology import Topology
from repro.reconfig.ring import HashRing


class PartitionMap:
    """Maps application keys to the group that replicates them."""

    def __init__(self, topology: Topology,
                 explicit: Optional[Dict[str, int]] = None,
                 ring: Optional[HashRing] = None) -> None:
        """Create a map over ``topology``'s groups.

        Args:
            explicit: Fixed key → group assignments.  Keys not listed
                fall back to ``ring``.
            ring: The ownership ring for unlisted keys; ``None`` falls
                back to ``sha256 % n_groups``.
        """
        self.topology = topology
        self.explicit = dict(explicit or {})
        for key, gid in self.explicit.items():
            if gid not in topology.group_ids:
                raise ValueError(f"key {key!r} mapped to unknown group {gid}")
        self.ring = ring
        self._version = 0
        # Routing runs group_of per key per operation; hashing the same
        # hot keys over and over would dominate the serving layer's
        # submit path.  The memo is epoch-aware: every version bump
        # clears it, so no cached assignment survives a reconfiguration.
        self._hash_memo: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The ownership epoch: bumped by every applied mutation."""
        return self._version

    def group_of(self, key: str) -> int:
        """The group replicating ``key`` (memoised fallback assignment)."""
        if key in self.explicit:
            return self.explicit[key]
        gid = self._hash_memo.get(key)
        if gid is None:
            if self.ring is not None:
                gid = self.ring.owner(key)
            else:
                digest = hashlib.sha256(key.encode()).digest()
                gid = (int.from_bytes(digest[:4], "big")
                       % self.topology.n_groups)
            self._hash_memo[key] = gid
        return gid

    def groups_of(self, keys: Iterable[str]) -> Tuple[int, ...]:
        """The destination-group set of an operation touching ``keys``.

        Raises:
            ValueError: If ``keys`` is empty — an empty destination set
                would silently produce an undeliverable cast.
        """
        dest = tuple(sorted({self.group_of(k) for k in keys}))
        if not dest:
            raise ValueError(
                "groups_of needs at least one key: an operation touching "
                "no keys has no destination groups"
            )
        return dest

    def is_replica(self, pid: int, key: str) -> bool:
        """Does process ``pid`` hold a replica of ``key``?"""
        return self.topology.group_of(pid) == self.group_of(key)

    # ------------------------------------------------------------------
    # Mutation (applied only at totally-ordered delivery points)
    # ------------------------------------------------------------------
    def assignments_of(self, keys: Iterable[str]) -> Dict[str, Optional[int]]:
        """The current *explicit* entries for ``keys`` (None = fallback).

        The migration protocol records these before a move so an
        aborted reconfiguration can restore the exact prior epoch.
        """
        return {k: self.explicit.get(k) for k in keys}

    def apply_assignments(
            self, assignments: Dict[str, Optional[int]]) -> int:
        """Apply explicit overrides (None deletes one) and bump the epoch.

        Returns the new :attr:`version`.  Callers must only invoke this
        at A-Deliver of a reconfiguration control message — that is the
        versioned-ownership contract that keeps every replica of a
        group on the same epoch at the same point of the total order.
        A rejected call (an unknown group) changes nothing.
        """
        for key, gid in assignments.items():
            if gid is not None and gid not in self.topology.group_ids:
                raise ValueError(f"key {key!r} mapped to unknown group {gid}")
        for key, gid in assignments.items():
            if gid is None:
                self.explicit.pop(key, None)
            else:
                self.explicit[key] = gid
        self._version += 1
        self._hash_memo.clear()
        return self._version

    def apply_move(self, keys: Iterable[str], dst: int) -> int:
        """Move ``keys`` to group ``dst`` (epoch-bumping convenience)."""
        return self.apply_assignments({k: dst for k in keys})

    def clone(self) -> "PartitionMap":
        """An independent view with the same assignment and epoch.

        Each replica mutates its own clone at its own delivery points;
        the pristine construction-time map stays with the cluster as
        the epoch-0 authority the checkers replay from.  Rings are
        immutable values, so the clone shares this map's.
        """
        out = PartitionMap(self.topology, explicit=self.explicit,
                           ring=self.ring)
        out._version = self._version
        return out
