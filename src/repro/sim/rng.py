"""Deterministic named random-number streams.

Distributed-systems simulations are easiest to debug when every source of
randomness is independently seeded: perturbing the network-latency stream
must not change the workload arrival stream.  :class:`RngRegistry` derives
one :class:`random.Random` per named stream from a single root seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """A family of independent, reproducible random streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the RNG for ``name``, creating it on first use.

        The per-stream seed is derived by hashing ``(root_seed, name)``,
        so streams are stable across runs and uncorrelated with each
        other.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
