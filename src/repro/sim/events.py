"""Event primitives for the discrete-event simulation kernel.

The kernel executes :class:`Event` objects in nondecreasing timestamp
order.  Ties are broken by a monotonically increasing sequence number so
that runs are fully deterministic: two events scheduled for the same
virtual time always execute in the order they were scheduled.

**The ``(time, seq)`` tie-break is a pinned contract**, not an
implementation detail: every seeded run's event order, and with it its
fingerprint, rests on it, and ``tests/test_event_queue.py`` regression-
tests it with colliding timestamps.  ``seq`` is an ``int`` counter, so
it is totally ordered and consistent with scheduling order.

**Reserved slots.**  A caller that only *might* need an event — a
timeout that is usually cancelled, a check that usually has nothing to
do — can :meth:`EventQueue.reserve` the next ``seq`` now and queue the
event later with :meth:`EventQueue.push_reserved`, or never.  The
contract covers them: reserving consumes exactly the seq a ``push`` at
that point would have, so every other event keeps its seq, and an event
materialised at ``(time, slot)`` fires exactly where an event pushed at
reservation time would have.  The queue refuses a slot whose moment is
not after the entry it popped last — that event would already have run
— and a reservation that is never materialised costs no heap entry at
all.

A *block* of slots works the same way.  :meth:`EventQueue.reserve_block`
mints the ``n`` consecutive seqs that ``n`` pushes made at that moment
would have got, with one counter jump, and :meth:`EventQueue.push_each`
builds a *plan* on it: ``n`` callbacks where item ``i`` fires at
``(times[i], base + i)``, held by one heap entry at a time.  When an
item fires it queues the next one in ``(time, index)`` order, which
never lies before the entry being executed.  So every item fires exactly
where the ``i``-th of ``n`` pushes made at reservation time would have,
ties with events queued before or during the plan included, while the
plan costs one heap entry and no :class:`Event` until its last item.

Events sit on the hot path of every simulated message, so the queue's
heap holds ``(time, seq, event)`` triples — the ``(time, seq)`` prefix
is unique, so every heap comparison stays inside the C tuple comparator
and an :class:`Event` itself is never compared.  The
queue also keeps an exact count of *live* (non-cancelled) events:
:meth:`Event.cancel` reports back to its owning queue, so ``len(queue)``
never counts tombstones still sitting in the heap.  Until its tombstone
is popped a cancelled event keeps its heap slot, so :meth:`Event.revive`
can undo the cancellation in place — an owner that keeps suspending and
resuming one timer pays for one heap entry, not one per resumption.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Sequence


class Event:
    """A single scheduled callback.

    Attributes:
        time: Virtual time at which the event fires.
        seq: Scheduling sequence number; breaks timestamp ties.
        action: Zero-argument callable executed when the event fires.
        label: Human-readable tag used by traces and debugging output.
        cancelled: When True the kernel skips the event.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel will skip it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_cancel()

    def revive(self) -> bool:
        """Undo :meth:`cancel` while the event still holds its heap slot.

        Returns False — and changes nothing — once the queue has popped
        the event (fired, or discarded as a tombstone): its moment is
        gone.  A revived event fires at its original ``(time, seq)``.
        """
        queue = self._queue
        if not self.cancelled or queue is None:
            return False
        self.cancelled = False
        queue._live += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f} seq={self.seq} {self.label}{state})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Equal-timestamp events pop in insertion (scheduling) order — the
    ``(time, seq)`` contract documented in the module docstring.

    ``len(queue)`` is the number of *live* events: cancelled events still
    occupy heap slots until lazily popped, but are never counted.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        #: The ``(time, seq, item)`` entry popped last: the event now
        #: executing, or the last one executed between events.
        self._current: Optional[tuple] = None

    def __len__(self) -> int:
        return self._live

    def _on_cancel(self) -> None:
        self._live -= 1

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at virtual time ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, seq, action, label, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_action(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a bare, non-cancellable callback at ``time``.

        Hot-path variant for callers that never cancel (the network's
        delivery events): the heap entry holds the callable directly,
        skipping the :class:`Event` wrapper allocation.
        """
        heapq.heappush(self._heap, (time, next(self._counter), action))
        self._live += 1

    def reserve(self) -> Any:
        """Mint the next tie-break ``seq`` without queueing anything.

        The slot a :meth:`push` right now would get; pass it to
        :meth:`push_reserved` later, or drop it.
        """
        return next(self._counter)

    def reserve_block(self, n: int) -> int:
        """Mint ``n`` consecutive seqs with one counter jump.

        Returns the first; the block is the seqs ``n`` pushes right now
        would get.  ``n == 0`` mints nothing.
        """
        first = next(self._counter)
        self._counter = itertools.count(first + n)
        return first

    def push_each(self, times: Sequence[float],
                  action: Callable[[Any], None], items: Sequence[Any],
                  order: Optional[Sequence[int]] = None) -> None:
        """Queue ``action(items[i])`` at ``times[i]`` for every ``i``,
        holding one bare heap entry at a time (a *plan*; see "Reserved
        slots" in the module docstring).

        ``order`` lists the indexes in ``(times[i], i)`` order; None
        means ``times`` is already nondecreasing.  The caller checks
        that no time is in the past.
        """
        n = len(items)
        if not n:
            return
        base = self.reserve_block(n)
        order = range(n) if order is None else order
        heap = self._heap
        heappush = heapq.heappush
        position = 0

        def fire() -> None:
            nonlocal position
            i = order[position]
            position += 1
            if position < n:
                j = order[position]
                heappush(heap, (times[j], base + j, fire))
                self._live += 1
            action(items[i])

        first = order[0]
        heappush(heap, (times[first], base + first, fire))
        self._live += 1

    def push_reserved(self, time: float, seq: Any,
                      action: Callable[[], None],
                      label: str = "") -> Optional[Event]:
        """Queue ``action`` at the reserved slot ``(time, seq)``.

        Returns None, queueing nothing, when that moment is not after
        the entry popped last: an event pushed at reservation time would
        already have fired, so it must not fire (again) now.
        """
        current = self._current
        if current is not None and (time, seq) <= (current[0], current[1]):
            return None
        event = Event(time, seq, action, label, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None.

        Bare actions pushed with :meth:`push_action` are wrapped in a
        fresh :class:`Event` so callers see one uniform type.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        time, seq, item = entry
        if type(item) is Event:
            return item
        return Event(time, seq, item)

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the earliest live ``(time, seq, item)``.

        ``item`` is either a live :class:`Event` or a bare callable; the
        kernel's run loop consumes these directly to avoid per-event
        wrapper churn.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            item = entry[2]
            if type(item) is Event:
                # Popped events leave the queue for good: a cancel()
                # after firing must not count, a revive() must fail.
                item._queue = None
                if item.cancelled:
                    continue
            self._live -= 1
            self._current = entry
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, or None."""
        heap = self._heap
        while heap:
            head = heap[0][2]
            if type(head) is Event and head.cancelled:
                head._queue = None
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, item in self._heap:
            if type(item) is Event:
                item._queue = None  # orphan: cancel() must not double-count
        self._heap.clear()
        self._live = 0
