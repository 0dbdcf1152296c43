"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  All other
subsystems (network, protocols, workloads, failure schedules) interact
with the kernel exclusively through its entry points, which keeps the
whole run deterministic for a given seed:

* :meth:`Simulator.schedule` / :meth:`Simulator.call_at` queue a
  cancellable event after a delay / at an instant;
* :meth:`Simulator.schedule_action` queues a bare callback that is
  never cancelled (the network's deliveries);
* :meth:`Simulator.call_at_each` queues a whole plan as one entry;
* :meth:`Simulator.reserve_slot` takes the tie-break slot of an event
  that may never be needed, and :meth:`Simulator.call_at_reserved`
  queues it there later.

The kernel deliberately knows nothing about processes, messages, or
protocols — those live in :mod:`repro.sim.process` and :mod:`repro.net`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from math import inf
from operator import le
from typing import Any, Callable, Optional, Sequence

from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic virtual-time event loop.

    Attributes:
        now: Current virtual time.  A plain attribute that only the run
            loop (and :meth:`step`) writes; clients read it.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self._running = False
        self._events_executed = 0
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (diagnostics/benchmarks)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, action, label)

    def schedule_action(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule a non-cancellable callback ``delay`` units from now.

        Hot-path variant of :meth:`schedule` for high-volume callers
        that never cancel (message deliveries): no :class:`Event` is
        allocated and nothing is returned.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._queue.push_action(self.now + delay, action)

    def call_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` at an absolute virtual time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, already at {self.now!r}"
            )
        return self._queue.push(time, action, label)

    def check_times(self, times: Sequence[float]) -> None:
        """Raise :class:`SimulationError` if any of ``times`` is in the
        past (what :meth:`call_at` refuses), naming the first one."""
        if times and min(times) < self.now:
            past = next(t for t in times if t < self.now)
            raise SimulationError(
                f"cannot schedule at {past!r}, already at {self.now!r}"
            )

    def call_at_each(self, times: Sequence[float],
                     action: Callable[[Any], None],
                     items: Sequence[Any]) -> None:
        """Schedule ``action(items[i])`` at absolute time ``times[i]``.

        Every item fires exactly where one of ``len(items)``
        :meth:`call_at` calls made now, in index order, would have, but
        the whole plan holds one heap entry at a time (see "Reserved
        slots" in :mod:`repro.sim.events`).  Every time is checked
        before anything is queued.  ``pending_events`` counts a queued
        plan as one event.
        """
        if len(times) != len(items):
            raise ValueError(
                f"{len(times)} times for {len(items)} items"
            )
        self.check_times(times)
        order = None
        if not all(map(le, times, islice(times, 1, None))):
            order = sorted(range(len(times)), key=times.__getitem__)
        self._queue.push_each(times, action, items, order)

    def reserve_slot(self):
        """Reserve the tie-break slot a ``schedule`` right now would get.

        For timers that usually never fire: keep the slot, and queue
        the event with :meth:`call_at_reserved` only once it is known
        to be needed.  See "Reserved slots" in :mod:`repro.sim.events`.
        """
        return self._queue.reserve()

    def call_at_reserved(
        self, time: float, slot, action: Callable[[], None], label: str = ""
    ) -> Optional[Event]:
        """Queue ``action`` at ``time`` under a reserved ``slot``.

        It fires exactly where an event scheduled when the slot was
        reserved would have.  Returns None (nothing queued) when that
        moment has already passed.
        """
        return self._queue.push_reserved(time, slot, action, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        time, _, item = entry
        if time < self.now:
            raise SimulationError("event queue yielded an event in the past")
        self.now = time
        self._events_executed += 1
        if type(item) is Event:
            item.action()
        else:
            item()
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Args:
            until: Stop once the next event would fire after this time.
                The clock is advanced to ``until`` in that case.
            max_events: Safety valve for runaway protocols.

        Returns:
            The virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stop_requested = False
        # step() inline, reading the queue's heap directly: one heappop
        # per event, no peek_time() / pop_entry() frames.  A cancelled
        # head is popped and dropped as pop_entry() drops it; the first
        # live head past ``until`` goes back untouched, as peek_time()
        # left it.
        queue = self._queue
        heap = queue._heap
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        executed = 0
        try:
            while heap and executed < budget and not self._stop_requested:
                entry = heappop(heap)
                item = entry[2]
                if type(item) is Event:
                    item._queue = None  # popped: see pop_entry()
                    if item.cancelled:
                        continue
                    action = item.action
                else:
                    action = item
                time = entry[0]
                if time > horizon:
                    if type(item) is Event:
                        item._queue = queue
                    heappush(heap, entry)
                    self.now = until
                    break
                queue._live -= 1
                queue._current = entry
                self.now = time
                self._events_executed += 1
                executed += 1
                action()
        finally:
            self._running = False
        return self.now

    def run_until_quiescent(
        self, max_events: int = 10_000_000, until: Optional[float] = None
    ) -> float:
        """Run until no events remain.  Raises if ``max_events`` trips.

        Used by quiescence checks: a quiescent protocol must drain the
        queue after a finite workload.
        """
        end = self.run(until=until, max_events=max_events)
        if self.pending_events > 0 and until is None:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return end
