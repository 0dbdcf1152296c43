"""Event-driven process abstraction.

A :class:`Process` models one node of the distributed system under the
benign crash-stop failure model of the paper (Section 2.1): a process may
crash and thereafter takes no steps; it never behaves maliciously.

Protocol layers (consensus, reliable multicast, atomic multicast, ...)
attach themselves to a process by registering message handlers keyed by
message *kind*.  The network delivers every incoming message through
:meth:`Process.handle`, which dispatches to the registered handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import Message
    from repro.sim.kernel import Simulator

from repro.clocks.lamport import LamportClock


class Process:
    """A crash-stop process attached to a simulated network.

    Attributes:
        pid: Globally unique process identifier.
        group_id: Identifier of the group the process belongs to.
        crashed: True once the process has crashed; crashed processes
            neither send nor handle messages.
        lamport: The modified Lamport clock of paper Section 2.3, used
            to measure latency degrees.
    """

    def __init__(self, pid: int, group_id: int, sim: "Simulator") -> None:
        self.pid = pid
        self.group_id = group_id
        self.sim = sim
        self.crashed = False
        self.lamport = LamportClock()
        self._handlers: Dict[str, Callable[["Message"], None]] = {}
        self._crash_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_handler(
        self, kind: str, handler: Callable[["Message"], None]
    ) -> None:
        """Route messages of ``kind`` to ``handler``.

        Each kind has exactly one handler; protocols namespace their
        kinds (e.g. ``"paxos.accept"``, ``"amcast.ts"``) to avoid
        collisions.
        """
        if kind in self._handlers:
            raise ValueError(f"duplicate handler for message kind {kind!r}")
        self._handlers[kind] = handler

    def add_crash_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback invoked when this process crashes."""
        self._crash_hooks.append(hook)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    # :meth:`Network.register` replaces both with the network's own
    # ``send`` / ``send_many`` bound to this pid, so a protocol's send
    # is one call; the network drops the sends of a crashed process.
    def send(self, dst: int, kind: str, payload: dict) -> None:
        """Send a point-to-point message through the network."""
        raise RuntimeError(f"process {self.pid} is not on a network")

    def send_many(self, dsts, kind: str, payload: dict) -> None:
        """Send the same logical message to several destinations.

        All copies carry the same Lamport send-timestamp: a one-to-many
        send is a single logical step, so it must not be charged one
        inter-group hop per destination (see paper Section 2.3).
        """
        raise RuntimeError(f"process {self.pid} is not on a network")

    def handle(self, msg: "Message") -> None:
        """Dispatch an incoming message to its protocol handler."""
        if self.crashed:
            return
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise KeyError(
                f"process {self.pid} has no handler for kind {msg.kind!r}"
            )
        handler(msg)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the process: it takes no further steps."""
        if self.crashed:
            return
        self.crashed = True
        for hook in self._crash_hooks:
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"Process(pid={self.pid}, group={self.group_id}, {state})"
