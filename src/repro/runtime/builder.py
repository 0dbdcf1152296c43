"""One-call construction of a complete simulated system.

A :class:`SystemSpec` declares a system once: protocol, groups, link
model, failure detector and transport.  :func:`build_system` turns a
spec (plus a seed, a crash schedule and the trace switch) into kernel,
topology, network, failure detector and one protocol endpoint per
process, fully wired to a :class:`~repro.runtime.results.DeliveryLog`
and a :class:`~repro.clocks.latency.LatencyMeter` that read the
simulation's :class:`~repro.net.message.MessageCatalog` table: one
:class:`~repro.clocks.latency.MessageRecord` per message, holding the
message, its cast stamps and its deliveries.  A cast is stamped by
:meth:`System.record_cast` and a delivery written by the endpoint's
delivery callback (:meth:`System.install_endpoint`).  A campaign's
:class:`~repro.campaigns.spec.ScenarioSpec` *is* a ``SystemSpec``, so
campaigns, the claims table (:mod:`repro.paper`), the store, the
examples and the tests all build through this one function.

Protocol registry
-----------------
========== =====================================================
name        protocol
========== =====================================================
a1          Algorithm A1 (genuine atomic multicast, this paper)
a1-noskip   A1 with stage skipping disabled (ablation)
a2          Algorithm A2 (atomic broadcast, this paper)
nongenuine  multicast over A2 broadcast (introduction's tradeoff)
skeen       decentralised Skeen (failure-free baseline, [2])
fritzke     Fritzke et al. [5] (four stages, uniform rmcast)
ring        Delporte-Gallet & Fauconnier [4] (group ring)
global      Rodrigues et al. [10] (consensus across groups)
sequencer   Vicente & Rodrigues [13] (sequencer-based broadcast)
optimistic  Sousa et al. [12] (optimistic total order, non-uniform)
detmerge    Aguilera & Strom [1] (deterministic merge)
========== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.clocks.latency import LatencyMeter, MessageRecord, normalised
from repro.core.interfaces import AppMessage
from repro.failure.detectors import (
    EventuallyPerfectDetector,
    FailureDetector,
    PerfectDetector,
)
from repro.failure.schedule import CrashSchedule
from repro.net.network import Network
from repro.net.topology import LatencyModel, LatencySpec, Topology
from repro.net.trace import MessageTrace
from repro.runtime.results import DeliveryLog
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.workload.generators import WorkloadPlan


class System:
    """A fully wired simulated deployment of one protocol."""

    def __init__(
        self,
        protocol_name: str,
        sim: Simulator,
        topology: Topology,
        network: Network,
        detector: FailureDetector,
        rng: RngRegistry,
        crashes: CrashSchedule,
    ) -> None:
        self.protocol_name = protocol_name
        self.sim = sim
        self.topology = topology
        self.network = network
        self.detector = detector
        self.rng = rng
        self.crashes = crashes
        # One record per message, in one table: the log's catalog is
        # the simulation's, and the meter reads the same dict.
        self.log = DeliveryLog()
        self.catalog = self.log.catalog.attach(sim)
        self.meter = LatencyMeter(self.catalog.record_map)
        self.endpoints: Dict[int, object] = {}
        #: pid -> its endpoint's bound ``a_mcast`` (or ``a_bcast``).
        self._casts: Dict[int, Callable[[AppMessage], None]] = {}
        self._delivery_taps: Dict[int, List[Callable]] = {}
        #: The mounted :class:`~repro.transport.reliable.ReliableTransport`
        #: when built with ``transport="reliable"`` (None otherwise).
        self.transport = None
        # Global (pid, msg) hooks: run observers (the stabilization
        # checker, a store's commit tracker) subscribe here.
        self._delivery_hooks: List[Callable] = []

    # ------------------------------------------------------------------
    # Wiring helpers (used by build_system)
    # ------------------------------------------------------------------
    def install_endpoint(self, pid: int, endpoint: object) -> None:
        """Attach a protocol endpoint and wire its delivery callback.

        The callback takes a batch: the messages the endpoint delivers
        at one instant, in order.  It reads the instant and the Lamport
        clock once and extends ``pid``'s sequence once per batch, then
        writes each message's record by the copy-on-write rule of
        :mod:`repro.clocks.latency`; hooks and taps see each message
        after its own record is written and before the next message's,
        and a batch that nothing observes skips them.
        It is the one writer of a built system's deliveries.
        """
        self.endpoints[pid] = endpoint
        cast = getattr(endpoint, "a_mcast", None)
        self._casts[pid] = (cast if cast is not None
                            else getattr(endpoint, "a_bcast", None))
        # Bound once per endpoint: this runs for every A-Deliver of the
        # run.  Hooks and taps subscribed later land in the same lists.
        clock = self.network.process(pid).lamport
        sequences = self.log.sequences
        records = self.catalog.record_map
        sim = self.sim
        hooks = self._delivery_hooks
        taps = self._delivery_taps.setdefault(pid, [])
        # The successor-map memo for this pid: (predecessor, instant)
        # and the successor it got.
        before_last = now_last = after_last = None

        def on_deliver(msgs: Sequence[AppMessage]) -> None:
            nonlocal before_last, now_last, after_last
            sequence = sequences.get(pid)
            if sequence is None:
                sequence = sequences[pid] = []
            sequence.extend(msgs)
            now = sim.now
            stamp = clock.value  # a delivery does not tick the clock
            # Only a hook or tap can subscribe another mid-batch.
            observed = hooks or taps
            for msg in msgs:
                # A batch delivered at one instant shares one
                # successor map.
                mid = msg.mid
                rec = records.get(mid)
                if rec is None:  # never cast: check_all reports it
                    rec = records[mid] = MessageRecord(None)
                before = rec.delivery_time
                if before is before_last and now == now_last:
                    rec.delivery_time = after_last
                else:
                    before_last, now_last = before, now
                    rec.delivery_time = after_last = {**before, pid: now}
                top = rec.max_delivery_lamport
                if top is None or stamp > top:
                    rec.max_delivery_lamport = stamp
                if observed:
                    for hook in hooks:
                        hook(pid, msg)
                    for tap in taps:
                        tap(msg)

        endpoint.set_delivery_handler(on_deliver)

    def add_delivery_tap(self, pid: int, tap: Callable) -> None:
        """Subscribe an application layer (e.g. a replicated store) to
        ``pid``'s A-Deliver stream, after metering and logging."""
        self._delivery_taps.setdefault(pid, []).append(tap)

    def add_delivery_hook(self, hook: Callable) -> None:
        """Subscribe ``hook(pid, msg)`` to *every* A-Deliver event.

        Unlike :meth:`add_delivery_tap` (per-pid, message-only), hooks
        see the delivering process too — the shape run observers need
        (the stabilization checker's settling time).
        """
        self._delivery_hooks.append(hook)

    # ------------------------------------------------------------------
    # Casting
    # ------------------------------------------------------------------
    def _check_senders(self, senders) -> None:
        """Every sender is a pid of this system (``KeyError`` if not)."""
        unknown = set(senders).difference(self.endpoints)
        if unknown:
            raise KeyError(f"no process {min(unknown)} in this system")

    def _check_broadcast_destinations(self, senders, dests,
                                      distinct) -> None:
        """Broadcast protocols require the full destination set.

        ``senders`` (known pids, :meth:`_check_senders`) and ``dests``
        are a plan's aligned columns and
        ``distinct`` maps the ``id`` of each distinct destination
        object in ``dests`` to its groups.  Each distinct destination
        is checked once; only if one of them is not every group, and
        some endpoint has no ``a_mcast``, are the casts walked for a
        broadcast-only sender that casts it.
        """
        everyone = set(self.topology.group_ids)
        partial = {key for key, groups in distinct.items()
                   if set(groups) != everyone}
        if not partial:
            return
        endpoints = self.endpoints
        if all(hasattr(endpoint, "a_mcast")
               for endpoint in endpoints.values()):
            return
        for sender, dest in zip(senders, dests):
            if (id(dest) in partial
                    and not hasattr(endpoints[sender], "a_mcast")):
                raise ValueError(
                    f"{self.protocol_name} is a broadcast protocol; "
                    f"messages must address all groups"
                )

    def record_cast(self, msg: AppMessage) -> None:
        """Record the cast of ``msg``, now.

        Every cast path calls this before it hands ``msg`` to an
        endpoint: :meth:`cast` / :meth:`cast_plan` and a store
        replica's :class:`~repro.store.cluster.TappedEndpoint`.
        Interning makes the message's entry (a second cast of a mid
        raises here, before anything is stamped); the entry takes the
        cast's stamp on the sender's clock and the instant.  A cast is
        final: recording the same message again raises too, so a
        delivered message's latency never moves.
        """
        rec = self.catalog.intern(msg)
        if rec.cast_time is not None:
            raise ValueError(f"mid {msg.mid!r} is already cast: a cast is "
                             f"final")
        clock = self.network.process(msg.sender).lamport
        rec.cast_lamport = clock.local_event()
        rec.cast_time = self.sim.now

    def _do_cast(self, msg: AppMessage) -> None:
        """Record and hand ``msg`` to its sender's endpoint, now."""
        self.record_cast(msg)
        self._casts[msg.sender](msg)

    def cast(
        self,
        sender: int,
        dest_groups=None,
        payload=None,
        mid: Optional[str] = None,
    ) -> AppMessage:
        """A-XCast a message from ``sender`` and meter it.

        ``dest_groups`` defaults to all groups (broadcast).  Broadcast
        protocols require the full destination set.  A named ``mid`` is
        claimed (:meth:`MessageCatalog.name`); else the run mints one.
        An unknown sender or a partial broadcast raises before either.
        """
        if dest_groups is None:
            dest_groups = tuple(self.topology.group_ids)
        self._check_senders((sender,))
        self._check_broadcast_destinations(
            (sender,), (dest_groups,), {id(dest_groups): dest_groups})
        if mid is None:
            mid = self.catalog.mint(1)[0]
        else:
            self.catalog.name((mid,))
        msg = AppMessage(mid, sender, dest_groups, payload)
        self._do_cast(msg)
        return msg

    def cast_plan(self, plan: WorkloadPlan,
                  mids: Optional[Sequence[Optional[str]]] = None
                  ) -> List[AppMessage]:
        """Schedule one cast per row of ``plan``; returns the messages.

        The plan is one kernel plan (:meth:`Simulator.call_at_each`):
        each cast fires where a ``call_at`` per row, in row order, would
        have, while the plan holds one queued event.  The latency meter
        records a cast when it fires, so the caster's Lamport clock is
        read at the true cast instant.  Every time, every sender and
        every broadcast destination set is checked before a message id
        is minted or anything queued, so a plan that fails changes
        nothing.

        The plan's columns are read as they are, and the messages are
        made here, before the run, in one pass: each distinct
        destination object is normalised once, the ids come from one
        :meth:`MessageCatalog.mint` block of the run's own catalog, and
        each message equals the one :class:`AppMessage` would have made
        for its row.  ``mids`` (aligned with the rows) names messages; a
        None entry, or no ``mids`` at all, takes the run's next id in
        row order.  The named ids are claimed
        (:meth:`MessageCatalog.name`) before any is minted: one that
        repeats, is cast already, is claimed by an earlier plan or was
        minted already is refused, and the run's mint never hands one
        out.
        """
        times = plan.times
        self.sim.check_times(times)
        senders = plan.senders
        self._check_senders(senders)
        dests = plan.dest_groups
        # Plans share their destination tuples, so there are few
        # distinct objects; keyed by identity, lists are welcome too.
        distinct = dict(zip(map(id, dests), dests))
        normal = {key: normalised(dest) for key, dest in distinct.items()}
        self._check_broadcast_destinations(senders, dests, normal)
        if any(normal[key] is not dest for key, dest in distinct.items()):
            dests = [normal[id(dest)] for dest in dests]
        if mids is None:
            mids = self.catalog.mint(len(plan))
        elif len(mids) != len(plan):
            raise ValueError(f"{len(mids)} mids for {len(plan)} plan items")
        else:
            named = [mid for mid in mids if mid is not None]
            self.catalog.name(named)
            minted = iter(self.catalog.mint(len(mids) - len(named)))
            mids = [next(minted) if mid is None else mid for mid in mids]
        msgs = AppMessage.from_columns(mids, senders, dests, plan.payloads)
        self.sim.call_at_each(times, self._do_cast, msgs)
        return msgs

    def cast_at(self, time: float, sender: int, dest_groups=None,
                payload=None, mid: Optional[str] = None) -> AppMessage:
        """Schedule a cast at virtual ``time``; returns the message.

        A one-row :meth:`cast_plan`.  Destination validation runs here,
        at scheduling time, so a partial-destination cast against a
        broadcast protocol fails loudly instead of silently reaching
        ``a_bcast`` mid-run.
        """
        if dest_groups is None:
            dest_groups = self.topology.group_ids
        plan = WorkloadPlan((time,), (sender,), (tuple(dest_groups),),
                            (payload,))
        return self.cast_plan(plan, mids=(mid,))[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def run_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until the event queue drains (quiescence required)."""
        return self.sim.run_until_quiescent(max_events=max_events)

    def start_rounds(self) -> None:
        """Warm up proactive protocols (A2 and wrappers) on every node."""
        for endpoint in self.endpoints.values():
            if hasattr(endpoint, "start_rounds"):
                endpoint.start_rounds()

    # ------------------------------------------------------------------
    # Result shortcuts
    # ------------------------------------------------------------------
    @property
    def inter_group_messages(self) -> int:
        """Inter-group message count so far (Figure 1's second column)."""
        return self.network.stats.inter_group_messages

    @property
    def intra_group_messages(self) -> int:
        """Intra-group message count so far."""
        return self.network.stats.intra_group_messages

    def degrees(self) -> Dict[str, Optional[int]]:
        """Latency degree of every metered message."""
        return self.meter.degrees()


# ----------------------------------------------------------------------
# Protocol factories
# ----------------------------------------------------------------------
def _make_a1(system: System, process: Process, **kw) -> object:
    from repro.core.amcast import AtomicMulticastA1

    return AtomicMulticastA1(process, system.topology, system.detector, **kw)


def _make_a1_noskip(system: System, process: Process, **kw) -> object:
    from repro.core.amcast import AtomicMulticastA1

    return AtomicMulticastA1(process, system.topology, system.detector,
                             enable_stage_skipping=False, **kw)


def _pop_predictor(kw: dict):
    """Instantiate a per-process predictor from ``predictor_factory``.

    Predictors are stateful, so sharing one instance across endpoints
    would be wrong; callers pass a zero-argument factory instead.
    """
    factory = kw.pop("predictor_factory", None)
    return factory() if factory is not None else None


def _make_a2(system: System, process: Process, **kw) -> object:
    from repro.core.abcast import AtomicBroadcastA2

    predictor = _pop_predictor(kw)
    return AtomicBroadcastA2(process, system.topology, system.detector,
                             predictor=predictor, **kw)


def _make_nongenuine(system: System, process: Process, **kw) -> object:
    from repro.core.abcast import AtomicBroadcastA2
    from repro.core.nongenuine import NonGenuineMulticast

    predictor = _pop_predictor(kw)
    abcast = AtomicBroadcastA2(process, system.topology, system.detector,
                               predictor=predictor, **kw)
    return NonGenuineMulticast(abcast)


def _make_skeen(system: System, process: Process, **kw) -> object:
    from repro.baselines.skeen import SkeenMulticast

    return SkeenMulticast(process, system.topology, **kw)


def _make_fritzke(system: System, process: Process, **kw) -> object:
    from repro.baselines.fritzke import FritzkeMulticast

    return FritzkeMulticast(process, system.topology, system.detector, **kw)


def _make_ring(system: System, process: Process, **kw) -> object:
    from repro.baselines.ring import RingMulticast

    return RingMulticast(process, system.topology, system.detector, **kw)


def _make_global(system: System, process: Process, **kw) -> object:
    from repro.baselines.global_consensus import GlobalConsensusMulticast

    return GlobalConsensusMulticast(process, system.topology,
                                    system.detector, **kw)


def _make_sequencer(system: System, process: Process, **kw) -> object:
    from repro.baselines.sequencer import SequencerBroadcast

    return SequencerBroadcast(process, system.topology, system.detector, **kw)


def _make_optimistic(system: System, process: Process, **kw) -> object:
    from repro.baselines.optimistic import OptimisticBroadcast

    return OptimisticBroadcast(process, system.topology, **kw)


def _make_detmerge(system: System, process: Process, **kw) -> object:
    from repro.baselines.detmerge import DeterministicMergeBroadcast

    return DeterministicMergeBroadcast(process, system.topology, **kw)


PROTOCOLS: Dict[str, Callable] = {
    "a1": _make_a1,
    "a1-noskip": _make_a1_noskip,
    "a2": _make_a2,
    "nongenuine": _make_nongenuine,
    "skeen": _make_skeen,
    "fritzke": _make_fritzke,
    "ring": _make_ring,
    "global": _make_global,
    "sequencer": _make_sequencer,
    "optimistic": _make_optimistic,
    "detmerge": _make_detmerge,
}


#: Detector names accepted by :class:`SystemSpec`.
DETECTORS = ("perfect", "eventually-perfect", "heartbeat")


@dataclass(frozen=True)
class SystemSpec:
    """The knobs that describe one system (Section 2.1): its protocol,
    its groups of processes, its link model and its failure detector.

    Attributes:
        protocol: A key of :data:`PROTOCOLS`.
        group_sizes: Processes per group, e.g. ``(3, 3, 3)``.
        latency: A :class:`~repro.net.topology.LatencySpec` (plain data,
            what campaigns ship to workers) or a live
            :class:`~repro.net.topology.LatencyModel` (pairwise or
            ``Fixed`` links).  The default, logical, model (1 unit
            inter-group, ~0 intra-group) reads latency degrees directly
            off the virtual clock.
        detector: ``"perfect"``, ``"eventually-perfect"`` (oracles
            that send nothing) or ``"heartbeat"`` (real message-driven
            heartbeats, one coalesced timer per group; see
            :mod:`repro.failure.heartbeat`).
        detector_delay: Crash-detection delay of the oracle detectors.
        stabilise_at: For the eventually-perfect detector, the virtual
            time after which it stops making mistakes.
        heartbeat_period: Gap between heartbeats (heartbeat detector).
        heartbeat_timeout: Silence before suspicion (heartbeat
            detector); must exceed the period.
        heartbeat_horizon: Virtual time after which heartbeating stops,
            so finite workloads reach quiescence (None = forever).
        transport: ``"none"`` (protocols ride the raw quasi-reliable
            links) or ``"reliable"`` (mount the sequenced retransmitting
            transport of :mod:`repro.transport.reliable` beneath every
            protocol kind — what makes the lossy adversary kinds masked
            rather than fatal).
        protocol_kwargs: ``(name, value)`` pairs forwarded to the
            protocol constructor (pairs keep the spec hashable and
            picklable).
    """

    protocol: str = "a1"
    group_sizes: Sequence[int] = (3, 3)
    latency: Union[LatencySpec, LatencyModel] = field(
        default_factory=LatencySpec)
    detector: str = "perfect"
    detector_delay: float = 5.0
    stabilise_at: float = 0.0
    heartbeat_period: float = 10.0
    heartbeat_timeout: float = 35.0
    heartbeat_horizon: Optional[float] = None
    transport: str = "none"
    protocol_kwargs: Tuple[Tuple[str, object], ...] = ()

    def validate(self) -> None:
        """Refuse an unknown protocol, detector or transport name."""
        from repro.transport import TRANSPORTS

        for what, name, known in (("protocol", self.protocol, PROTOCOLS),
                                  ("detector", self.detector, DETECTORS),
                                  ("transport", self.transport, TRANSPORTS)):
            if name not in known:
                raise ValueError(
                    f"unknown {what} {name!r}; pick one of {sorted(known)}"
                )


def build_system(spec: SystemSpec, seed: int = 0,
                 crashes: Optional[CrashSchedule] = None,
                 trace: bool = False) -> System:
    """Assemble a ready-to-run :class:`System` from ``spec``.

    Args:
        spec: What system to build (validated here).
        seed: Root seed for every random stream.
        crashes: Crash schedule; validated against the topology.
        trace: Enable the full message trace (genuineness checks).
    """
    spec.validate()
    sim = Simulator()
    rng = RngRegistry(seed)
    topology = Topology(list(spec.group_sizes))
    latency = spec.latency
    if not isinstance(latency, LatencyModel):
        latency = latency.build()
    network = Network(sim, topology, latency, rng.stream("net"),
                      trace=MessageTrace(enabled=trace))
    for pid in topology.processes:
        network.register(Process(pid, topology.group_of(pid), sim))

    crashes = crashes or CrashSchedule.none()
    crashes.validate(topology)
    crashes.apply(sim, network)

    detector = spec.detector
    if detector == "perfect":
        # Only the scheduled victims can crash; anything else that
        # crashes a process declares it (FailureDetector.expect_crash).
        fd: FailureDetector = PerfectDetector(sim, network,
                                              delay=spec.detector_delay,
                                              faulty=crashes.crashes)
    elif detector == "eventually-perfect":
        fd = EventuallyPerfectDetector(
            sim, network, rng.stream("fd"), stabilise_at=spec.stabilise_at,
            delay=spec.detector_delay,
        )
    else:
        from repro.failure.heartbeat import HeartbeatFailureDetector

        fd = HeartbeatFailureDetector(
            sim, network, topology,
            period=spec.heartbeat_period, timeout=spec.heartbeat_timeout,
            horizon=spec.heartbeat_horizon,
        )

    system = System(spec.protocol, sim, topology, network, fd, rng, crashes)
    if spec.transport == "reliable":
        from repro.transport import ReliableTransport

        # Mounted after crashes.apply (crash events are scheduled, so
        # ground-truth give-up sees them) and before the endpoints so
        # every protocol send is intercepted from the first cast.
        tsp = ReliableTransport(sim, network, rng.stream("transport"))
        tsp.mount()
        system.transport = tsp
    factory = PROTOCOLS[spec.protocol]
    kwargs = dict(spec.protocol_kwargs)
    for pid in topology.processes:
        endpoint = factory(system, network.process(pid), **kwargs)
        system.install_endpoint(pid, endpoint)
    return system
