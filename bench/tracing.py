"""Outside-in span tracer: per-layer self time without touching ``src/``.

The tracer lives entirely in ``bench/`` and wraps only public seams of
the simulator, installed *before* the system is built so every handler,
callback and scheduled action registered during construction is seen:

* handlers given to ``Process.register_handler`` and callbacks given to
  ``set_decision_handler`` / ``set_delivery_handler`` /
  ``ConsensusSequence(on_decide=...)`` / ``System.add_delivery_tap`` /
  ``Network.add_delay_hook`` / ``Network.add_delivery_filter``;
* actions given to ``Simulator.schedule`` / ``schedule_action`` /
  ``call_at``;
* the public down-calls between layers (``Network.send[_many]``,
  ``GroupConsensus.propose``, ``ReliableMulticast.multicast``,
  ``a_mcast`` / ``a_bcast``, the transport's frame hooks) and the set-up
  entry points (``build_system``, the plan generators).

A span's *layer* is the ``repro.<package>`` that defines the wrapped
callable — so a lambda scheduled by ``repro/store/service.py`` is store
time and the network's delivery closure is net time.  Spans nest on one
stack (the simulator is single-threaded); a layer's **self time** is
its spans' durations minus the part their child spans cover, so the
per-layer self times of a run sum exactly to the root span.

Aggregates cover the whole run.  Raw spans (name, layer, start, end,
parent, op id) are kept only for the first ``max_ops`` operations — the
mid / txn id the seam exposes, inherited by nested spans — so memory
stays bounded however long the plan is.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: ``src/repro`` packages that get their own ``<layer>.self_s`` metric;
#: anything else a span resolves to is reported as unattributed.
LAYERS = ("sim", "net", "transport", "rmcast", "consensus", "core",
          "failure", "store", "reconfig", "runtime", "adversary")

_OP_LABELS = ("cast:", "txn:", "exec:", "bounce:")


def layer_of(fn) -> str:
    """The ``repro.<package>`` defining ``fn`` (``other`` outside repro)."""
    fn = getattr(fn, "func", fn)  # functools.partial
    module = getattr(fn, "__module__", None) or type(fn).__module__
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        # replication.cluster.TappedEndpoint is the store's adapter.
        return "store" if parts[1] == "replication" else parts[1]
    return "other"


def _op_of_message(args) -> Optional[str]:
    """Op id of a handler/callback whose first argument is a message."""
    if not args:
        return None
    first = args[0]
    mid = getattr(first, "mid", None)  # AppMessage
    if mid is not None:
        return mid
    payload = getattr(first, "payload", None)  # net Message
    if type(payload) is dict:
        mid = payload.get("mid")
        if type(mid) is str:
            return mid
    return None


def _op_of_label(label: str) -> Optional[str]:
    if label.startswith(_OP_LABELS):
        return label.split(":", 1)[1].split("@", 1)[0]
    return None


class Tracer:
    """Span stack + per-layer aggregates + bounded raw span log."""

    def __init__(self, max_ops: int = 2000) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds and call counts per span name.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (gid, instance) pairs seen by consensus decision callbacks.
        self.decided = set()
        self.spans: List[tuple] = []
        self.max_ops = max_ops
        self._ops: Dict[str, int] = {}
        # Frames are [span id, start, child seconds, op].
        self._stack: List[list] = []
        self._next_id = 0
        self._origin = perf_counter()

    # ------------------------------------------------------------------
    # Span mechanics
    # ------------------------------------------------------------------
    def _enter(self, op: Optional[str]) -> list:
        stack = self._stack
        if op is None and stack:
            op = stack[-1][3]
        self._next_id += 1
        frame = [self._next_id, 0.0, 0.0, op]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list, layer: str, name: str) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.self_s[layer] += duration - frame[2]
        self.total_s[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        op = frame[3]
        if op is not None:
            ops = self._ops
            if op in ops or len(ops) < self.max_ops:
                ops.setdefault(op, len(ops))
                self.spans.append((frame[0], stack[-1][0] if stack else None,
                                   name, layer, op,
                                   frame[1] - self._origin,
                                   end - self._origin))

    def wrap(self, fn: Callable, name: str, layer: Optional[str] = None,
             op_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (default: its module's)."""
        layer = layer or layer_of(fn)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(op_of(args) if op_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, layer, name)

        return traced

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """An explicit span (the runner's root span around the run)."""
        frame = self._enter(None)
        try:
            yield
        finally:
            self._exit(frame, layer, name)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Patch the public seams for the duration of the block."""
        from repro.campaigns import runner as campaign_runner
        from repro.campaigns.spec import WorkloadSpec
        from repro.consensus.paxos import GroupConsensus
        from repro.consensus.sequence import ConsensusSequence
        from repro.core.abcast import AtomicBroadcastA2
        from repro.core.amcast import AtomicMulticastA1
        from repro.net.network import Network
        from repro.rmcast.reliable import ReliableMulticast
        from repro.runtime.builder import System
        from repro.sim.kernel import Simulator
        from repro.sim.process import Process
        from repro.store import cluster as store_cluster
        from repro.transport.reliable import ReliableTransport

        undo: List[tuple] = []

        def patch(owner, attr, replacement):
            undo.append((owner, attr, owner.__dict__[attr]
                         if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def wrap_callback_arg(owner, attr, position, name, op_of=None):
            """Wrap the callable a registration method receives."""
            original = getattr(owner, attr)

            @functools.wraps(original)
            def register(*args, **kwargs):
                args = list(args)
                args[position] = self.wrap(args[position], name,
                                           op_of=op_of)
                return original(*args, **kwargs)

            patch(owner, attr, register)

        def wrap_method(owner, attr, name=None, layer=None, op_of=None):
            original = getattr(owner, attr)
            patch(owner, attr, self.wrap(
                original, name or f"{layer_of(original)}.{attr}",
                layer=layer, op_of=op_of))

        # Handlers and callbacks (upcalls).
        original_register = Process.register_handler

        def register_handler(process, kind, handler):
            original_register(process, kind, self.wrap(
                handler, f"handle:{kind}", op_of=_op_of_message))

        patch(Process, "register_handler", register_handler)

        original_set_decision = GroupConsensus.set_decision_handler

        def set_decision_handler(consensus, handler):
            gid = consensus.process.group_id
            decided = self.decided
            traced = self.wrap(handler, "decision")

            def on_decision(instance, value):
                decided.add((gid, instance))
                traced(instance, value)

            original_set_decision(consensus, on_decision)

        patch(GroupConsensus, "set_decision_handler", set_decision_handler)
        wrap_callback_arg(ConsensusSequence, "__init__", 2, "on_decide")
        wrap_callback_arg(ReliableMulticast, "set_delivery_handler", 1,
                          "r_deliver", op_of=lambda a: a[1])
        for endpoint in (AtomicMulticastA1, AtomicBroadcastA2):
            wrap_callback_arg(endpoint, "set_delivery_handler", 1,
                              "a_deliver", op_of=_op_of_message)
        wrap_callback_arg(System, "add_delivery_tap", 2, "delivery_tap",
                          op_of=_op_of_message)
        wrap_callback_arg(Network, "add_delay_hook", 1, "delay_hook")
        wrap_callback_arg(Network, "add_delivery_filter", 1,
                          "delivery_filter")

        # Scheduled actions.
        for attr in ("schedule", "schedule_action", "call_at"):
            original = getattr(Simulator, attr)

            def schedule(sim, when, action, label="", _original=original,
                         _plain=(attr == "schedule_action")):
                traced = self.wrap(action, f"event:{layer_of(action)}",
                                   op_of=None if _plain else
                                   (lambda _a, op=_op_of_label(label): op))
                if _plain:
                    return _original(sim, when, traced)
                return _original(sim, when, traced, label)

            patch(Simulator, attr, schedule)

        # Public down-calls between layers.
        wrap_method(Network, "send")
        wrap_method(Network, "send_many")
        wrap_method(GroupConsensus, "propose")
        wrap_method(ReliableMulticast, "multicast",
                    op_of=lambda a: a[3] if len(a) > 3 else None)
        wrap_method(AtomicMulticastA1, "a_mcast",
                    op_of=lambda a: a[1].mid)
        wrap_method(AtomicBroadcastA2, "a_bcast",
                    op_of=lambda a: a[1].mid)
        for attr in ("sequencer", "next_wire", "on_frame"):
            wrap_method(ReliableTransport, attr)

        # Set-up entry points (runtime.build_s / workload.plan_s).
        wrap_method(campaign_runner, "build_system", "runtime.build",
                    layer="runtime")
        wrap_method(WorkloadSpec, "plans", "workload.plan",
                    layer="workload")
        wrap_method(store_cluster, "txn_workload", "workload.plan",
                    layer="workload")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Raw spans of the first ``max_ops`` operations, as JSON lines.

        ``parent`` is the id of the enclosing span (None at the top);
        a parent that carried no op id is not itself in the file.
        """
        with open(path, "w") as fh:
            for span_id, parent, name, layer, op, start, end in sorted(
                    self.spans):
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "op": op,
                    "start": round(start, 7), "end": round(end, 7),
                }) + "\n")
