"""Consistent-hash ring ownership with virtual nodes per group.

The elastic partition map needs an ownership function with two
properties the bare ``sha256 % n_groups`` fallback lacks:

* **balance** — with ``vnodes`` points per group the max/min
  keys-per-group ratio concentrates around 1 (std of a group's arc
  share falls as ``1/sqrt(vnodes)``);
* **locality of change** — adding or removing one group remaps only
  the keys on the arcs that group gains or loses (≈ ``1/n`` of the
  keyspace), where the modulo assignment reshuffles almost everything.

The ring is a plain value: positions derive only from group ids and
virtual-node indices via SHA-256, so every replica (and the checker)
reconstructs the identical ring from the group list alone — no state
to replicate, no randomness to seed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, List, Tuple


def _hash64(token: str) -> int:
    """First 8 bytes of SHA-256, as an unsigned 64-bit ring position."""
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Key → group ownership over a consistent-hash ring."""

    def __init__(self, groups: Iterable[int], vnodes: int = 64) -> None:
        """Build the ring for ``groups`` with ``vnodes`` points each.

        Groups are deduplicated and sorted so two rings over the same
        set are identical objects-by-value regardless of input order.
        """
        self.groups: Tuple[int, ...] = tuple(sorted(set(groups)))
        if not self.groups:
            raise ValueError("HashRing needs at least one group")
        if vnodes < 1:
            raise ValueError(f"HashRing needs vnodes >= 1, got {vnodes!r}")
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = [
            (_hash64(f"group:{gid}:vnode:{v}"), gid)
            for gid in self.groups
            for v in range(vnodes)
        ]
        points.sort()
        self._points = points
        self._positions = [pos for pos, _ in points]

    def owner(self, key: str) -> int:
        """The group owning ``key``: first ring point at or after its
        hash, wrapping past the top of the ring."""
        h = _hash64(f"key:{key}")
        idx = bisect_right(self._positions, h) % len(self._points)
        return self._points[idx][1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HashRing(groups={self.groups}, "
                f"vnodes={self.vnodes})")
