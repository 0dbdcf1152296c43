"""Executable correctness properties of atomic multicast/broadcast.

Each checker inspects a finished run (the :class:`DeliveryLog` plus the
crash schedule and topology) and raises :class:`PropertyViolation` with
a precise explanation on failure.  The properties are the ones of paper
Section 2.2:

* **uniform integrity** — every process delivers a message at most
  once, only if addressed, and only if it was cast;
* **validity** — if a correct process casts m, every correct addressee
  delivers m;
* **uniform agreement** — if *any* process (even one that later
  crashes) delivers m, every correct addressee delivers m;
* **uniform prefix order** — for any two processes p, q, the delivery
  sequences projected on their common messages are prefix-related.

Because delivery sequences only ever grow, checking the final sequences
is equivalent to checking the "at any time t" formulation: a divergence
at time t persists to the end of the run.

One pass over what the run indexed
----------------------------------
:func:`check_all` — the assertion every bench pass, campaign cell and
most tests end with — rebuilds nothing.  The :class:`DeliveryLog`
already holds, per process, its delivery list (``sequences``) and, per
message, the run's one record (``record_map``, its catalog's table):
the cast message and its deliverers, the ``delivery_time`` keys.  The
check compares those in place:

* **integrity, validity, agreement** — one pass over the records.  No
  process delivered twice iff the delivery count equals the number of
  (process, message) pairs in the records; nothing uncast was delivered
  iff every record with a deliverer has a message; and per message the
  deliverers must lie between its correct addressees and all its
  addressees, both sets memoised once per destination tuple;
* **prefix order** — once integrity holds, a process's projection on
  its own group is its whole list, so every member's list must be a
  slice of its group's longest one, and two groups' longest lists,
  projected on the messages the pair shares, must be prefix-related.

A passing run therefore costs set and list comparisons, not a Python
step per delivery.  Only when one fails do the per-property functions
below run, in the specification's order — integrity, validity,
agreement, prefix order — to word the first violation exactly as they
always have.

Prefix order in one pass
------------------------
The per-property prefix-order check, which words an order violation, is
a single near-linear pass built on two reductions:

* **within a group** every member's projected sequence must be a prefix
  of a per-group *canonical* order (the union order in which members
  first reach each position); any two prefixes of the same sequence are
  automatically prefix-related;
* **across groups** the canonical orders, projected on the messages a
  group *pair* shares, must agree position by position — maintained as
  one shared merge list per pair, extended by whichever group reaches a
  position first.

Both reductions are folds over individual deliveries
(:class:`_PrefixOrderTracker`), fed here from the finished sequences.

The quadratic pairwise implementations and the four-pass ``check_all``
live on in ``tests/unit/test_checkers_streaming.py`` as oracles;
adversarial and fuzzed logs assert identical violations.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.core.interfaces import AppMessage
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.results import DeliveryLog


class PropertyViolation(AssertionError):
    """A paper property failed on a concrete run.

    ``context`` carries machine-readable details of the violating event
    (property name, pid, mid, position, ...) so the adversary explorer
    can persist a structured record of *what* broke alongside the
    replayable scenario that broke it.  It is additive: ``str(exc)``
    stays the human-readable message existing callers format.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context: Dict[str, object] = context


def check_uniform_integrity(log: DeliveryLog, topology: Topology) -> None:
    """At most once; only addressees; only cast messages."""
    records = log.record_map
    sequences = log.sequences
    for pid in sorted(sequences):
        gid = topology.group_of(pid)
        seen = set()
        for msg in sequences[pid]:
            if msg.mid in seen:
                raise PropertyViolation(
                    f"process {pid} delivered {msg.mid} more than once",
                    property="uniform_integrity", kind="duplicate",
                    pid=pid, mid=msg.mid,
                )
            seen.add(msg.mid)
            cast_msg = records[msg.mid].msg
            if cast_msg is None:
                raise PropertyViolation(
                    f"process {pid} delivered {msg.mid}, which was never "
                    f"cast",
                    property="uniform_integrity", kind="uncast",
                    pid=pid, mid=msg.mid,
                )
            if gid not in cast_msg.dest_groups:
                raise PropertyViolation(
                    f"process {pid} (group {gid}) delivered {msg.mid} "
                    f"addressed to {cast_msg.dest_groups}",
                    property="uniform_integrity", kind="not_addressed",
                    pid=pid, mid=msg.mid,
                )


def check_validity(
    log: DeliveryLog, topology: Topology, crashes: CrashSchedule
) -> None:
    """Correct caster => all correct addressees deliver."""
    for rec in log.record_map.values():
        msg = rec.msg
        if msg is not None and not crashes.is_faulty(msg.sender):
            _require_addressees_in(rec.delivery_time, topology, crashes, msg)


def check_uniform_agreement(
    log: DeliveryLog, topology: Topology, crashes: CrashSchedule
) -> None:
    """Any delivery => all correct addressees deliver."""
    for rec in log.record_map.values():
        if rec.msg is not None and rec.delivery_time:
            _require_addressees_in(rec.delivery_time, topology, crashes,
                                   rec.msg)


def _require_addressees_in(
    deliverers: Collection[int], topology: Topology,
    crashes: CrashSchedule, msg: AppMessage,
) -> None:
    for gid in msg.dest_groups:
        for pid in topology.members(gid):
            if crashes.is_faulty(pid):
                continue
            if pid not in deliverers:
                raise PropertyViolation(
                    f"correct addressee {pid} never delivered {msg.mid} "
                    f"(delivered by {sorted(deliverers)})",
                    property="agreement_or_validity", kind="missing",
                    pid=pid, mid=msg.mid,
                    delivered_by=sorted(deliverers),
                )


def _index_holds(log: DeliveryLog, topology: Topology,
                 crashes: CrashSchedule) -> bool:
    """Integrity, validity and agreement together, on the log's index.

    Exact: False iff one of the three per-property checks would raise.
    """
    records = log.record_map
    if log.delivery_count() != sum(
            len(rec.delivery_time) for rec in records.values()):
        return False
    faulty = crashes.crashes
    # dest tuple -> (all addressees, correct addressees)
    addressees: Dict[Tuple[int, ...], Tuple[frozenset, frozenset]] = {}
    for rec in records.values():
        msg = rec.msg
        if msg is None:  # only a delivery makes an entry with no cast
            return False
        dests = msg.dest_groups
        sets = addressees.get(dests)
        if sets is None:
            everyone = frozenset(topology.processes_of_groups(dests))
            sets = addressees[dests] = (everyone, everyone.difference(faulty))
        everyone, correct = sets
        if not rec.delivery_time:
            if correct and msg.sender not in faulty:
                return False
        elif not correct <= rec.delivery_time.keys() <= everyone:
            return False
    return True


def _prefix_holds(log: DeliveryLog, topology: Topology) -> bool:
    """Uniform prefix order on whole lists; needs uniform integrity.

    True only if :func:`check_uniform_prefix_order` passes.  Lists are
    compared by message value, so unequal copies of one id read False
    and are left to that check.
    """
    group_index = topology.group_index
    sequences = log.sequences
    longest: Dict[int, List[AppMessage]] = {}
    for pid, seq in sequences.items():
        gid = group_index[pid]
        best = longest.get(gid)
        if best is None or len(seq) > len(best):
            longest[gid] = seq
    for pid, seq in sequences.items():
        if longest[group_index[pid]][:len(seq)] != seq:
            return False
    # (g, h) -> g's longest list projected on the messages h shares.
    projected: Dict[Tuple[int, int], List[AppMessage]] = {}
    for gid, canon in longest.items():
        dests = {msg.dest_groups for msg in canon}
        for other in set().union(*dests) - {gid}:
            projected[gid, other] = (
                canon if all(other in d for d in dests)
                else [msg for msg in canon if other in msg.dest_groups])
    for (gid, other), mine in projected.items():
        theirs = projected.get((other, gid))
        if gid < other and theirs is not None:
            n = min(len(mine), len(theirs))
            if mine[:n] != theirs[:n]:
                return False
    return True


# ----------------------------------------------------------------------
# Uniform prefix order
# ----------------------------------------------------------------------
class _PrefixOrderTracker:
    """Near-linear prefix-order verification, one delivery at a time.

    Soundness sketch.  Let C_g be the canonical order built for group g
    (only deliveries of messages actually addressed to g take part, as
    in the paper's projection).  Every member's projected sequence is
    checked index-by-index against C_g, so at all times it is a prefix
    of C_g — hence any two same-group members are prefix-related.  For
    groups g ≠ h, every *new position* of C_g that concerns a message
    shared with h is checked against the pair's merge list S_{g,h}
    (extended when g is first to the position), so the pair projections
    of C_g and C_h are both prefixes of S_{g,h} — hence prefix-related,
    and with them the projections of any p ∈ g, q ∈ h.  Conversely any
    violated pair diverges at some first position, and whichever group
    reaches that position second trips the mismatch — in either replay
    order.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._canon: Dict[int, List[str]] = {
            gid: [] for gid in topology.group_ids
        }
        self._ptr: Dict[int, int] = {pid: 0 for pid in topology.processes}
        # (gmin, gmax) -> [shared merge list, {gid: matched count}]
        self._pairs: Dict[Tuple[int, int], List] = {}

    def observe(self, pid: int, msg: AppMessage) -> None:
        """Fold one delivery in; raises on the first order violation."""
        gid = self.topology.group_of(pid)
        dest = msg.dest_groups
        if gid not in dest:
            # Not part of any projection involving pid's group; the
            # integrity checker reports stray deliveries separately.
            return
        canon = self._canon[gid]
        k = self._ptr[pid]
        self._ptr[pid] = k + 1
        if k < len(canon):
            if canon[k] != msg.mid:
                raise PropertyViolation(
                    f"prefix order violated within group {gid}: "
                    f"process {pid} delivered {msg.mid} at position {k} "
                    f"where {canon[k]} was delivered first",
                    property="uniform_prefix_order", kind="intra_group",
                    pid=pid, mid=msg.mid, position=k, expected=canon[k],
                    group=gid,
                )
            return
        canon.append(msg.mid)
        if len(dest) == 1:
            return
        for other in dest:
            if other == gid:
                continue
            key = (gid, other) if gid < other else (other, gid)
            state = self._pairs.get(key)
            if state is None:
                state = self._pairs[key] = [[], {key[0]: 0, key[1]: 0}]
            shared, matched = state
            i = matched[gid]
            matched[gid] = i + 1
            if i < len(shared):
                if shared[i] != msg.mid:
                    raise PropertyViolation(
                        f"prefix order violated between groups {gid} "
                        f"and {other}: position {i} of their common "
                        f"messages is {shared[i]} in one order and "
                        f"{msg.mid} in the other",
                        property="uniform_prefix_order",
                        kind="inter_group", pid=pid, mid=msg.mid,
                        position=i, expected=shared[i],
                        groups=sorted((gid, other)),
                    )
            else:
                shared.append(msg.mid)


def check_uniform_prefix_order(log: DeliveryLog, topology: Topology) -> None:
    """Pairwise projected sequences must be prefix-related.

    The projection P_{p,q} keeps only the messages addressed to both
    p's and q's groups (paper Section 2.2).  Implemented as one pass
    over the log via :class:`_PrefixOrderTracker` — O(total deliveries ×
    destination-set size) instead of the old O(p²·m) pairwise scan.
    """
    tracker = _PrefixOrderTracker(topology)
    sequences = log.sequences
    for pid in sorted(sequences):
        for msg in sequences[pid]:
            tracker.observe(pid, msg)


def check_all(
    log: DeliveryLog,
    topology: Topology,
    crashes: Optional[CrashSchedule] = None,
) -> None:
    """Run every property check (the standard post-run assertion).

    One pass over the log's indexes decides; the per-property checks
    run only to word a violation (see the module docstring).
    """
    crashes = crashes or CrashSchedule.none()
    if not _index_holds(log, topology, crashes):
        check_uniform_integrity(log, topology)
        check_validity(log, topology, crashes)
        check_uniform_agreement(log, topology, crashes)
    if not _prefix_holds(log, topology):
        check_uniform_prefix_order(log, topology)
