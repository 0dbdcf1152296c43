"""The simulated quasi-reliable network.

Implements the link semantics of paper Section 2.1:

* links neither corrupt nor duplicate messages;
* links are **quasi-reliable**: a message from a correct process to a
  correct process is eventually delivered; messages to or from crashed
  processes may be lost (here: messages to a crashed destination are
  dropped, messages already in flight from a now-crashed sender are still
  delivered, which quasi-reliability permits).

The network is also the instrumentation point for the modified Lamport
clocks (Section 2.3): it stamps every send with the sender's clock and
advances the receiver's clock on delivery, and it feeds the
message-complexity counters behind Figure 1.

Breaking quasi-reliability is possible, but only deliberately: the lossy
adversary kinds (``drop``/``duplicate``/``corrupt``, see
:mod:`repro.adversary.injectors`) act through the same delivery-filter
and delay-hook seams the quasi-reliable injectors use, plus the
:meth:`Network.inject_copy` seam for duplication.  Runs that enable them
either accept broken runs (that is the point of the torture explorer) or
mount the retransmitting transport of :mod:`repro.transport`, which
restores quasi-reliable semantics above the faulty links; the network
cooperates through :meth:`set_transport` and two explicit interception
points (wrap on send, frame admission on delivery) so that the protocols
above notice nothing.
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.net.message import Message
from repro.net.topology import LatencyModel, Topology
from repro.net.trace import MessageTrace, NetworkStats
from repro.sim.kernel import Simulator
from repro.sim.process import Process

# A delivery filter may veto individual copies (fault-injection in tests).
DeliveryFilter = Callable[[Message], bool]

# A delay hook may perturb the sampled link delay of one message copy
# (``hook(msg, delay) -> delay``).  Adversarial injectors use this as
# their send-side hook point: delays may grow or shrink, but the copy is
# still delivered exactly once with its payload untouched, so every
# perturbation stays within quasi-reliable link semantics.
DelayHook = Callable[[Message, float], float]

# "No route planned yet" — None is a verdict (per-copy path), so the
# route tables need their own miss marker.
_UNPLANNED = object()

class Route(NamedTuple):
    """What one ``send_many`` from a source to a destination tuple does.

    Planned once per ``(src, destinations)`` on fixed-delay links and
    remembered: the *legs* are exactly the latency buckets the per-copy
    path builds on every send — first-seen delay order, receivers in
    destination order — so scheduling one kernel event per leg yields
    the same ``(time, seq)`` events either way.

    """

    #: ``(delay, inter_group, receiving processes)`` per leg.
    legs: Tuple[Tuple[float, bool, Tuple[Process, ...]], ...]
    #: Copies per send, and how many of them cross groups.
    total: int
    inter: int


class Network:
    """Connects :class:`Process` objects through a latency model."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: LatencyModel,
        rng: random.Random,
        trace: Optional[MessageTrace] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self.rng = rng
        self.stats = NetworkStats()
        self.trace = trace or MessageTrace(enabled=False)
        self._processes: Dict[int, Process] = {}
        self._filters: List[DeliveryFilter] = []
        self._delay_hooks: List[DelayHook] = []
        #: Optional :class:`~repro.transport.reliable.ReliableTransport`
        #: mounted by ``SystemSpec(transport="reliable")``.  None on
        #: the hot paths costs one attribute read + is-None test.
        self.transport = None
        # src_gid -> {dst_gid -> constant link delay, or None when the
        # pair's distribution needs an RNG draw per copy}.  Lazily
        # filled; rows are fetched once per send_many call so the
        # per-copy lookup is a single int-keyed dict access.
        self._fixed_delay: Dict[int, Dict[int, Optional[float]]] = {}
        # src -> {destination pids -> Route, or None when some copy of
        # that send needs its own Message whatever is mounted}.  Planned
        # on first use (see _plan_route); the latency model and the
        # registered processes are fixed once traffic flows.
        self._routes: Dict[int, Dict[Tuple[int, ...], Optional[Route]]] = {}
        # A model without a single fixed-delay link (WAN jitter on every
        # pair) can never plan a leg: its sends skip the route lookup,
        # which measured 2-3 % of a store_mix run.
        self._fixed_links = latency.has_fixed_links()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        """Attach a process to the network."""
        if process.pid in self._processes:
            raise ValueError(f"pid {process.pid} already registered")
        self._processes[process.pid] = process
        process.attach_network(self)

    def process(self, pid: int) -> Process:
        """Look up a registered process."""
        return self._processes[pid]

    def processes(self) -> List[Process]:
        """All registered processes in pid order."""
        return [self._processes[pid] for pid in sorted(self._processes)]

    def add_delivery_filter(self, flt: DeliveryFilter) -> None:
        """Install a predicate that may drop individual message copies.

        Only test fixtures and fault injectors use this (e.g. to model a
        faulty sender whose reliable-multicast copies reached a strict
        subset of the group).  Filters must respect quasi-reliability if
        the scenario claims to.  Installing the same filter twice would
        silently double its observations (a counting filter would fire
        at half its configured threshold), so duplicates are rejected.
        """
        # ``==``, not ``is``: bound methods are recreated per attribute
        # access, and == is how list.remove matches them back.
        if flt in self._filters:
            raise ValueError("delivery filter already installed")
        self._filters.append(flt)

    def remove_delivery_filter(self, flt: DeliveryFilter) -> None:
        """Uninstall a previously added delivery filter."""
        if flt not in self._filters:
            raise ValueError("delivery filter not installed")
        self._filters.remove(flt)

    def add_delay_hook(self, hook: DelayHook) -> None:
        """Install a per-copy link-delay perturbation hook.

        Hooks run in installation order at send time, each seeing the
        previous hook's output; the final value must be a valid
        (non-negative) delay.  This is the injector hook point for
        latency skew, bounded reordering and partition spikes.
        """
        if hook in self._delay_hooks:
            raise ValueError("delay hook already installed")
        self._delay_hooks.append(hook)

    def remove_delay_hook(self, hook: DelayHook) -> None:
        """Uninstall a previously added delay hook."""
        if hook not in self._delay_hooks:
            raise ValueError("delay hook not installed")
        self._delay_hooks.remove(hook)

    def set_transport(self, transport) -> None:
        """Mount a reliable transport beneath the protocol traffic.

        Every subsequent :meth:`send`/:meth:`send_many` of a covered
        kind is wrapped into a sequenced, checksummed frame, and frame
        deliveries are admitted through the transport's checksum and
        dedup logic before they dispatch (see
        :mod:`repro.transport.reliable`).  Must happen before traffic
        flows — mounting mid-run would strand unsequenced copies.
        """
        if self.transport is not None:
            raise ValueError("a transport is already mounted")
        self.transport = transport

    def inject_copy(self, msg: Message, delay: float) -> None:
        """Schedule an *extra* delivery of a copy already in flight.

        This is the duplication seam for the lossy adversary: the clone
        really does cross the wire again, so it is accounted like any
        other copy (stats, trace, ``duplicated`` counter) and delivered
        through the normal path — later filters, the transport's dedup
        window and the receiver's clock all see it.  The clone is a
        fresh :class:`Message` sharing the payload dict, never the same
        object, so a corruption of one copy cannot leak into the other.
        """
        copy = Message(msg.src, msg.dst, msg.kind, msg.payload,
                       msg.inter_group, msg.send_lamport, msg.send_time,
                       msg.wire)
        self.stats.on_send(copy)
        self.stats.duplicated += 1
        if self.trace.enabled:
            self.trace.on_send(self.sim.now, copy)
        self.sim.schedule_action(delay, lambda m=copy: self._deliver(m))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, kind: str, payload: dict) -> None:
        """Send one message from ``src`` to ``dst``."""
        transport = self.transport
        if transport is not None:
            next_wire = transport.sequencer(src, kind, payload, self.sim.now)
            if next_wire is not None:
                if self._processes[src].crashed:
                    return  # don't sequence what can never enter the wire
                self._send_copy(src, dst, kind, payload,
                                next_wire(src, dst))
                return
        self._send_copy(src, dst, kind, payload)

    def send_many(
        self, src: int, dsts: Iterable[int], kind: str, payload: dict
    ) -> None:
        """Send the same logical message to each destination.

        Every copy is stamped from the sender's *current* clock, so a
        one-to-many send counts as a single logical step (at most one
        inter-group hop on any causal path), per Section 2.3.

        Copies whose link delay coincides form one *leg*: a single
        kernel event that fans out on fire, receivers in destination
        order.  Same-delay copies were already contiguous under
        per-copy scheduling (their sequence numbers were consecutive),
        so legs change neither the RNG stream nor any delivery
        interleaving — they only remove heap traffic.

        Where every link on the way has a fixed delay, the legs of a
        ``(src, dsts)`` pair never change: they are planned once and
        remembered as a :class:`Route` (keyed by the tuple of pids, so
        the caller may reuse or mutate its sequence), and each leg
        carries **one** shared envelope whose ``dst`` is stamped per
        handler call (the envelope contract in
        :mod:`repro.net.message`).  Whatever needs a ``Message`` per
        copy gets one, decided from what is mounted at that moment: at
        send, a transport-covered kind (the frame word is per copy), a
        delay hook, an enabled trace or a sampled link delay take the
        per-copy path for the whole send; at delivery, a filter or an
        enabled trace makes the leg hand every receiver its own copy
        through the per-copy delivery path.  Both paths produce the same
        events, stats, clocks and handler calls.
        """
        sender = self._processes[src]
        if sender.crashed:
            return
        now = self.sim.now
        transport = self.transport
        next_wire = (transport.sequencer(src, kind, payload, now)
                     if transport is not None else None)
        lamport = sender.lamport.value  # timestamp_send leaves it unchanged
        trace = self.trace if self.trace.enabled else None
        if (self._fixed_links and next_wire is None and trace is None
                and not self._delay_hooks):
            # Nothing mounted looks at a copy on its way out: fan out
            # by leg, one shared envelope and one kernel event each.
            if type(dsts) is not tuple:
                dsts = tuple(dsts)
            routes = self._routes.get(src)
            if routes is None:
                routes = self._routes[src] = {}
            route = routes.get(dsts, _UNPLANNED)
            if route is _UNPLANNED:
                route = routes[dsts] = self._plan_route(src, dsts)
            if route is not None:
                self.stats.on_send_many(kind, route.total, route.inter)
                schedule = self.sim.schedule_action
                for delay, inter, receivers in route.legs:
                    envelope = Message(
                        src, -1, kind, payload, inter,
                        lamport + 1 if inter else lamport, now,
                    )
                    schedule(delay, lambda e=envelope, r=receivers:
                             self._deliver_leg(e, r))
                return
        group_of = self.topology.group_index
        src_gid = group_of[src]
        fixed_row = self._fixed_delay.get(src_gid)
        if fixed_row is None:
            fixed_row = self._fixed_delay[src_gid] = {}
        rng = self.rng
        total = 0
        n_inter = 0
        buckets: Dict[float, List[Message]] = {}
        for dst in dsts:
            dst_gid = group_of[dst]
            inter = src_gid != dst_gid
            if next_wire is None:
                msg = Message(
                    src, dst, kind, payload, inter,
                    lamport + 1 if inter else lamport, now,
                )
            else:
                msg = Message(
                    src, dst, kind, payload, inter,
                    lamport + 1 if inter else lamport, now,
                    next_wire(src, dst),
                )
            total += 1
            if inter:
                n_inter += 1
            if trace is not None:
                trace.on_send(now, msg)
            delay = fixed_row.get(dst_gid, -1.0)
            if delay == -1.0 and dst_gid not in fixed_row:
                fixed_row[dst_gid] = delay = self.latency.fixed_delay(
                    src_gid, dst_gid)
            if delay is None:
                delay = self.latency.sample(src_gid, dst_gid, rng)
            if self._delay_hooks:
                for hook in self._delay_hooks:
                    delay = hook(msg, delay)
            bucket = buckets.get(delay)
            if bucket is None:
                buckets[delay] = [msg]
            else:
                bucket.append(msg)
        self.stats.on_send_many(kind, total, n_inter)
        schedule = self.sim.schedule_action
        for delay, copies in buckets.items():
            if len(copies) == 1:
                schedule(delay, lambda m=copies[0]: self._deliver(m))
            else:
                schedule(delay, lambda ms=copies: self._deliver_batch(ms))

    def _plan_route(self, src: int,
                    dsts: Tuple[int, ...]) -> Optional[Route]:
        """The legs a ``send_many`` from ``src`` to ``dsts`` fans out by.

        None when the per-copy path has to run however little is
        mounted: a link on the way samples its delay (every copy draws
        from the RNG, in destination order), or an intra- and an
        inter-group link share a delay, so one bucket would hold copies
        with different ``inter_group`` / ``send_lamport``.
        """
        group_of = self.topology.group_index
        src_gid = group_of[src]
        fixed_delay = self.latency.fixed_delay
        processes = self._processes
        scope: Dict[float, bool] = {}
        buckets: Dict[float, list] = {}
        n_inter = 0
        for dst in dsts:
            dst_gid = group_of[dst]
            delay = fixed_delay(src_gid, dst_gid)
            if delay is None:
                return None
            inter = src_gid != dst_gid
            if scope.setdefault(delay, inter) != inter:
                return None
            buckets.setdefault(delay, []).append(processes[dst])
            n_inter += inter
        legs = tuple((delay, scope[delay], tuple(receivers))
                     for delay, receivers in buckets.items())
        return Route(legs, len(dsts), n_inter)

    def _send_copy(self, src: int, dst: int, kind: str, payload: dict,
                   wire: "int | None" = None) -> None:
        sender = self._processes[src]
        if sender.crashed:
            return
        group_of = self.topology.group_index
        src_gid = group_of[src]
        dst_gid = group_of[dst]
        inter = src_gid != dst_gid
        lamport = sender.lamport.value  # timestamp_send leaves it unchanged
        msg = Message(
            src, dst, kind, payload, inter,
            lamport + 1 if inter else lamport, self.sim.now, wire,
        )
        self.stats.on_send(msg)
        if self.trace.enabled:
            self.trace.on_send(self.sim.now, msg)
        delay = self._link_delay(src_gid, dst_gid)
        for hook in self._delay_hooks:
            delay = hook(msg, delay)
        self.sim.schedule_action(delay, lambda m=msg: self._deliver(m))

    def _link_delay(self, src_gid: int, dst_gid: int) -> float:
        """One delay draw for the link, via the fixed-delay cache.

        ``send_many`` inlines the same cache consultation per copy (it
        hoists the row lookup out of its fan-out loop); both paths
        resolve misses through :meth:`LatencyModel.fixed_delay`, so the
        caching rule lives in one place.
        """
        fixed_row = self._fixed_delay.get(src_gid)
        if fixed_row is None:
            fixed_row = self._fixed_delay[src_gid] = {}
        delay = fixed_row.get(dst_gid, -1.0)
        if delay == -1.0 and dst_gid not in fixed_row:
            fixed_row[dst_gid] = delay = self.latency.fixed_delay(
                src_gid, dst_gid)
        if delay is None:
            delay = self.latency.sample(src_gid, dst_gid, self.rng)
        return delay

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_leg(self, envelope: Message, receivers) -> None:
        """Walk one leg of a ``send_many``: the shared envelope to each
        receiver, in destination order.

        Per receiver these are :meth:`_deliver`'s own steps — crashed
        check (so a receiver crashed by an earlier handler of this leg
        is still dropped), Lamport receive rule, handler lookup — with
        ``dst`` stamped on the envelope before each call.  A delivery
        filter or the message trace present *now* (either can be
        installed after the send) is a per-copy seam: that receiver gets
        its own :class:`Message` through :meth:`_deliver`.
        """
        filters = self._filters
        kind = envelope.kind
        stamp = envelope.send_lamport
        for receiver in receivers:
            if filters or self.trace.enabled:
                self._deliver(Message(
                    envelope.src, receiver.pid, kind, envelope.payload,
                    envelope.inter_group, stamp, envelope.send_time))
                continue
            envelope.dst = receiver.pid
            if receiver.crashed:
                self.stats.on_drop(envelope)
                continue
            clock = receiver.lamport
            if stamp > clock.value:
                clock.value = stamp
            handler = receiver._handlers.get(kind)
            if handler is None:
                raise KeyError(
                    f"process {receiver.pid} has no handler for kind "
                    f"{kind!r}")
            handler(envelope)

    def _deliver_batch(self, msgs: List[Message]) -> None:
        """Event body of a per-copy bucket with more than one copy.

        Per-copy crash and filter checks still run individually; a
        receiver's handler may crash a later receiver in the same batch
        and that copy is then dropped, exactly as with per-copy events.
        """
        for msg in msgs:
            self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        """One copy: crash and filter checks, clock, trace, handler."""
        receiver = self._processes[msg.dst]
        if receiver.crashed:
            self.stats.on_drop(msg)
            return
        for flt in self._filters:
            if not flt(msg):
                self.stats.on_drop(msg)
                return
        # Inlined LamportClock.observe_receive and Process.handle —
        # per-copy hot path (the crashed check already ran above).
        clock = receiver.lamport
        if msg.send_lamport > clock.value:
            clock.value = msg.send_lamport
        if self.trace.enabled:
            self.trace.on_deliver(self.sim.now, msg)
        handler = receiver._handlers.get(msg.kind)
        if handler is None:
            raise KeyError(
                f"process {receiver.pid} has no handler for kind "
                f"{msg.kind!r}"
            )
        wire = msg.wire
        if wire is not None and not self.transport.on_frame(msg, wire):
            # A sequenced transport frame that failed its checksum
            # or was already released: the handler must not see it.
            return
        handler(msg)
