"""Per-group sub-kernel machinery for the conservative parallel kernel.

The parallel kernel (:mod:`repro.runtime.parallel`) partitions a run by
group: each group's events execute on their own :class:`GroupSequencedQueue`
and virtual clock, synchronized at epoch barriers of width
``lookahead = LatencyModel.min_inter_group()``.  The pieces here are the
kernel-level primitives that make the partitioned execution reproduce
the serial kernel's ``(time, seq)`` total order *exactly*:

**Why the serial order is recoverable.**  The serial queue breaks
timestamp ties by a global counter — i.e. by *scheduling moment*.  The
scheduling moment of an event is fully determined by the execution rank
of the event that scheduled it plus the call index within that
execution; the scheduler's execution rank is, recursively, its own
(fire time, scheduling moment).  So the serial tie-break order is the
lexicographic order of *pedigrees*:

    ``seq(child) = (scheduling time, seq(parent), call index)``

with setup-scheduled roots as the base case, keyed
``(setup band, (group id,), per-replica counter)`` — the serial kernel
runs setup in globally known bands (build: crash schedule and detector
timers; round warm-ups; workload plans), and within each band its
scheduling order is group-major (crash schedules apply pid-sorted,
round warm-ups walk endpoints pid-sorted, workload plans are validated
group-major at equal times), so band/group/counter *is* the serial
setup order even though each sub-kernel only schedules its own slice.

These nested keys are plain tuples: comparisons run in the C tuple
comparator and short-circuit at the first differing component (almost
always the scheduling time), and each key shares its parent's tuple
structurally, so the per-event cost is one 3-tuple.  Cross-group
arrivals — scheduled in the *sender's* sub-kernel — carry the sender's
pedigree key verbatim and therefore interleave into the destination
heap exactly where the serial kernel would have placed them.
``compare_kernels`` is the empirical enforcement of this argument.

**Epoch safety.**  With lookahead ``L``, a cross-group send at time
``t ∈ [eL, (e+1)L)`` arrives no earlier than ``t + L ≥ (e+1)L`` — in a
strictly later window (windows are half-open).  So executing window
``e`` in every sub-kernel, then flushing outboxes, can never deliver a
message into a window that already ran.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from repro.sim.events import Event, EventQueue

#: Sequence-key scheduling times of events scheduled during setup
#: (before the run starts).  The serial kernel gives setup events the
#: lowest seqs, so they must sort before anything scheduled at runtime —
#: including runtime scheduling at virtual time 0.0 — hence negative
#: sentinels.  Setup happens in three globally ordered bands, and the
#: serial scheduling order *within* each band is group-major (crash
#: schedules apply pid-sorted, round warm-ups walk endpoints pid-sorted,
#: workload plans are validated group-major at equal times), so
#: ``(band, gid, per-group counter)`` reproduces the serial setup order
#: exactly even though each sub-kernel only schedules its own slice.
SETUP_BAND_BUILD = -4.0     # build_system: crash schedule, detector timers
SETUP_BAND_ROUNDS = -3.0    # System.start_rounds warm-ups
SETUP_BAND_WORKLOAD = -2.0  # workload plans / store transaction plans

#: Backwards-compatible alias for the default (build-time) band.
SETUP_TIME = SETUP_BAND_BUILD


class GroupSequencedQueue(EventQueue):
    """An :class:`EventQueue` whose tie-break keys are pedigree tuples.

    Sequence keys are nested ``(sched_time, parent_seq, call_index)``
    tuples instead of bare ints (see the module docstring for why that
    is exactly the serial counter order); heap entries stay
    ``(time, seq, item)`` triples, so every comparison still runs in
    the C tuple comparator and the inherited pop/peek/cancel machinery
    works unchanged.

    The queue must be bound to its simulator (:meth:`bind`) so pushes
    can stamp the current virtual time; until :meth:`begin_run` is
    called, pushes are stamped as setup roots (see the band sentinels).
    Pushes made while an event executes inherit its pedigree: their
    parent key is the seq of the entry popped last.
    """

    def __init__(self, gid: int) -> None:
        super().__init__()
        self.gid = gid
        self._sim = None
        self._setup = True
        self._setup_band = SETUP_BAND_BUILD
        self._child_index = 0

    def bind(self, sim) -> None:
        """Attach the owning simulator (source of scheduling times)."""
        self._sim = sim

    def set_setup_band(self, band: float) -> None:
        """Advance to a later setup band (see the band sentinels above)."""
        self._setup_band = band

    def begin_run(self) -> None:
        """End the setup phase: stamp subsequent pushes with pedigrees."""
        self._setup = False

    def reserve(self) -> tuple:
        """Mint the next pedigree key (see :meth:`EventQueue.reserve`).

        Besides deferred local events, this is the key a cross-group
        copy is captured under: the receiving sub-kernel queues the
        arrival with :meth:`push_reserved` at the *sender's* key — the
        one the delivery would have carried had it been scheduled
        locally, which is exactly what the serial kernel did.
        """
        if self._setup:
            # Root key.  The group id is wrapped in a 1-tuple so element
            # 1 is tuple-shaped in every key — comparable against a
            # nested parent key (whose element 0 is a band or a time,
            # both numeric like a gid).
            return (self._setup_band, (self.gid,), next(self._counter))
        index = self._child_index
        self._child_index = index + 1
        parent = self._current[1] if self._current is not None else None
        return (self._sim._now, parent, index)

    def pop_entry(self):
        entry = super().pop_entry()
        if entry is not None:
            # Children scheduled while this event runs extend its
            # pedigree — including cross-group copies captured by the
            # outbox, which share the same call-index stream.
            self._child_index = 0
        return entry

    def push(self, time: float, action: Callable[[], None],
             label: str = "") -> Event:
        seq = self.reserve()
        event = Event(time, seq, action, label, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_action(self, time: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time, self.reserve(), action))
        self._live += 1


class OutboundCopy:
    """One cross-group message copy captured by a sub-kernel's outbox.

    Plain data (picklable) so the process-pool executor can ship copies
    between workers at barriers.
    """

    __slots__ = ("arrival_time", "seq", "dst_gid", "msg")

    def __init__(self, arrival_time: float, seq: Tuple[float, int, int],
                 dst_gid: int, msg) -> None:
        self.arrival_time = arrival_time
        self.seq = seq
        self.dst_gid = dst_gid
        self.msg = msg

    def __getstate__(self):
        return (self.arrival_time, self.seq, self.dst_gid, self.msg)

    def __setstate__(self, state):
        (self.arrival_time, self.seq, self.dst_gid, self.msg) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OutboundCopy(t={self.arrival_time:.3f} seq={self.seq} "
                f"g{self.dst_gid} {self.msg!r})")


class Outbox:
    """Per-sub-kernel buffer of cross-group sends, flushed at barriers.

    Each captured copy is stamped with the next pedigree key of the
    sender's queue — the *same* call-index stream local pushes use, so
    a diverted copy occupies exactly the scheduling slot the serial
    kernel gave its delivery event.
    """

    def __init__(self, src_gid: int, queue: GroupSequencedQueue) -> None:
        self.src_gid = src_gid
        self._queue = queue
        self._pending: List[OutboundCopy] = []

    def add(self, msg, delay: float, dst_gid: int) -> None:
        """Capture one copy; the queue's clock is the scheduling time."""
        seq = self._queue.reserve()
        self._pending.append(
            OutboundCopy(msg.send_time + delay, seq, dst_gid, msg))

    def drain(self) -> List[OutboundCopy]:
        """Remove and return everything buffered so far, send order."""
        pending = self._pending
        self._pending = []
        return pending

    def __len__(self) -> int:
        return len(self._pending)


# ----------------------------------------------------------------------
# Epoch arithmetic
# ----------------------------------------------------------------------
def epoch_of(time: float, lookahead: float) -> int:
    """The epoch containing ``time``; windows are ``[eL, (e+1)L)``."""
    epoch = int(time / lookahead)
    # Float division can land one window off in either direction on
    # boundaries (e.g. 43*0.1/0.1 truncates to 42).  Both corrections
    # matter: one window high schedules work before its barrier; one
    # window low makes ``window_end(epoch) == time``, and the exclusive
    # window bound then executes nothing — a coordinator livelock.
    if epoch * lookahead > time:
        epoch -= 1
    elif (epoch + 1) * lookahead <= time:
        epoch += 1
    return max(epoch, 0)


def window_end(epoch: int, lookahead: float) -> float:
    """Exclusive upper bound of ``epoch``'s window."""
    return (epoch + 1) * lookahead
