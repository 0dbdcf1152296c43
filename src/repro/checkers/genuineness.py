"""Genuineness checker (paper Section 2.2).

An atomic multicast algorithm is *genuine* iff in every run, a process
that sends or receives any message either cast some message itself or is
an addressee of some cast message.

The checker needs the full message trace (build the system with
``trace=True``) and compares the set of processes that touched the
network against the union of casters and addressees.  The trace keeps
its participant sets incrementally, so this check is O(casts +
participants) — independent of the number of traced events.  It
deliberately ignores ideal failure-detector queries — those are
oracles, exactly as in the papers the paper builds on.
"""

from __future__ import annotations

from typing import Set

from repro.net.topology import Topology
from repro.net.trace import MessageTrace
from repro.runtime.results import DeliveryLog


class GenuinenessViolation(AssertionError):
    """A process outside every destination set touched the network."""


def allowed_participants(log: DeliveryLog, topology: Topology) -> Set[int]:
    """Casters plus every addressee of every cast message."""
    allowed: Set[int] = set()
    seen_dest = set()
    for msg in log.cast_map.values():
        allowed.add(msg.sender)
        if msg.dest_groups not in seen_dest:
            # Destination sets repeat heavily (broadcast runs have one);
            # expanding each distinct set once keeps this O(casts).
            seen_dest.add(msg.dest_groups)
            for gid in msg.dest_groups:
                allowed.update(topology.members(gid))
    return allowed


def check_genuineness(
    trace: MessageTrace, log: DeliveryLog, topology: Topology
) -> None:
    """Raise unless only casters/addressees sent or received messages."""
    if not trace.enabled:
        raise ValueError(
            "genuineness checking requires a system built with trace=True"
        )
    allowed = allowed_participants(log, topology)
    offenders = trace.participants() - allowed
    if offenders:
        raise GenuinenessViolation(
            f"processes {sorted(offenders)} participated but are neither "
            f"casters nor addressees (allowed: {sorted(allowed)})"
        )
