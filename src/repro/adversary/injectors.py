"""Live fault injectors: seeded schedule perturbation within the model.

Each injector attaches to a built :class:`~repro.runtime.builder.System`
through the network's injector hook points — delay hooks for latency
perturbation, delivery filters for phase-triggered crashes — and draws
randomness only from its own named stream of the run's root seed.

The delay and crash injectors stay inside the paper's system model:

* **quasi-reliable links** — delay-based injectors only stretch a
  copy's latency; nothing is corrupted, duplicated or dropped, so a
  message between two correct processes is still delivered exactly
  once (just later, possibly reordered against other traffic — the
  paper assumes no FIFO ordering);
* **crash-stop failures** — the phase-crash injector crashes its
  target exactly the way a :class:`CrashSchedule` entry would, and
  registers the crash with the run's schedule so the post-run
  checkers' notion of "correct process" stays truthful.  Targets are
  validated up front against the per-group majority requirement.

The **lossy kinds** (``drop``/``duplicate``/``corrupt``) deliberately
step *outside* that envelope: they break the quasi-reliable link axiom
itself.  Against ``transport="none"`` they falsify the protocols'
delivery assumptions (that is their test value — the torture explorer
catches and shrinks the resulting violations); against
``transport="reliable"`` the sequenced retransmitting transport of
:mod:`repro.transport.reliable` masks them and every property must stay
green.  Each lossy injector takes an optional ``until`` horizon (virtual
time after which no further fault fires) so a run can demonstrate
self-stabilization: faults stop, the transport drains, the system
quiesces — :mod:`repro.checkers.stabilization` asserts exactly that.
Per-copy decisions come from a shared :class:`~repro.net.channel.
ChannelModel`, which spends a constant two draws per in-scope copy, so
the shrinker's window narrowing never realigns the fault stream.

Fault accounting
----------------
Injectors count *fault opportunities* (copies they would perturb) and
*faults injected* (copies actually perturbed).  The spec's
``skip_faults``/``max_faults`` window gates opportunities into faults;
random draws happen for every opportunity regardless of the gate, so
narrowing the window never shifts the injector's random stream — the
alignment the shrinker's bisection relies on.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.failure.schedule import CrashSchedule
from repro.net.channel import ChannelModel
from repro.net.message import Message


class FaultInjector:
    """Base class: fault-window gating and (un)installation."""

    def __init__(self, spec: InjectorSpec, system,
                 rng: random.Random) -> None:
        self.spec = spec
        self.system = system
        self.rng = rng
        self.opportunities = 0
        self.faults_injected = 0

    # ------------------------------------------------------------------
    def _gate(self) -> bool:
        """Admit one fault opportunity through the spec's window."""
        i = self.opportunities
        self.opportunities += 1
        if i < self.spec.skip_faults:
            return False
        if (self.spec.max_faults is not None
                and self.faults_injected >= self.spec.max_faults):
            return False
        self.faults_injected += 1
        return True

    # ------------------------------------------------------------------
    def install(self) -> None:
        raise NotImplementedError

    def uninstall(self) -> None:
        raise NotImplementedError


class LinkSkewInjector(FaultInjector):
    """Persistently skew the latency of selected inter-group links.

    Params: ``factor`` (delay multiplier, default 5.0), ``src_gid``
    (source group whose outbound inter-group links are skewed, default
    0), optional ``dst_gid`` (restrict to one destination group).
    """

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.factor = float(params.get("factor", 5.0))
        self.src_gid = params.get("src_gid", 0)
        self.dst_gid = params.get("dst_gid")
        if self.factor < 0:
            raise ValueError(f"link-skew factor must be >= 0, "
                             f"got {self.factor}")
        self._group_of = system.topology.group_index

    def install(self) -> None:
        self.system.network.add_delay_hook(self._on_delay)

    def uninstall(self) -> None:
        self.system.network.remove_delay_hook(self._on_delay)

    def _on_delay(self, msg: Message, delay: float) -> float:
        src_gid = self._group_of[msg.src]
        dst_gid = self._group_of[msg.dst]
        if src_gid != self.src_gid or dst_gid == src_gid:
            return delay
        if self.dst_gid is not None and dst_gid != self.dst_gid:
            return delay
        if not self._gate():
            return delay
        return delay * self.factor


class DelayReorderInjector(FaultInjector):
    """Hold random copies back a bounded extra delay, reordering them.

    Params: ``probability`` (per-copy fault probability, default 0.15),
    ``extra_min``/``extra_max`` (bounds of the added delay, default
    0.5/5.0), ``scope`` (``"all"``/``"inter"``/``"intra"``, default
    ``"all"``).

    One uniform draw happens per in-scope copy whether or not the copy
    is perturbed; the added delay is derived from the same draw, so the
    fault decisions of copies outside the shrinker's window are
    unchanged when the window moves.
    """

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.probability = float(params.get("probability", 0.15))
        self.extra_min = float(params.get("extra_min", 0.5))
        self.extra_max = float(params.get("extra_max", 5.0))
        self.scope = params.get("scope", "all")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"delay-reorder probability must be in "
                             f"(0, 1], got {self.probability}")
        if not 0.0 <= self.extra_min <= self.extra_max:
            raise ValueError(
                f"delay-reorder needs 0 <= extra_min <= extra_max, got "
                f"{self.extra_min}/{self.extra_max}")
        if self.scope not in ("all", "inter", "intra"):
            raise ValueError(f"delay-reorder scope must be all/inter/"
                             f"intra, got {self.scope!r}")

    def install(self) -> None:
        self.system.network.add_delay_hook(self._on_delay)

    def uninstall(self) -> None:
        self.system.network.remove_delay_hook(self._on_delay)

    def _on_delay(self, msg: Message, delay: float) -> float:
        if self.scope == "inter" and not msg.inter_group:
            return delay
        if self.scope == "intra" and msg.inter_group:
            return delay
        u = self.rng.random()
        if u >= self.probability:
            return delay
        if not self._gate():
            return delay
        span = self.extra_max - self.extra_min
        return delay + self.extra_min + (u / self.probability) * span


class PartitionSpikeInjector(FaultInjector):
    """Latency-spike a group partition for a window of virtual time.

    Params: ``start``/``duration`` (the window, defaults 5.0/15.0),
    ``spike`` (added delay for copies crossing the partition boundary,
    default 10.0), ``groups`` (one side of the partition, default
    ``(0,)``).

    Copies are delayed, never dropped: this is the transient-partition
    behaviour quasi-reliable links actually exhibit — the protocols
    must ride it out without violating safety.
    """

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.start = float(params.get("start", 5.0))
        self.duration = float(params.get("duration", 15.0))
        self.spike = float(params.get("spike", 10.0))
        self.groups = frozenset(params.get("groups", (0,)))
        if self.duration < 0 or self.spike < 0:
            raise ValueError("partition-spike duration and spike must "
                             "be >= 0")
        self._group_of = system.topology.group_index
        self._sim = system.sim

    def install(self) -> None:
        self.system.network.add_delay_hook(self._on_delay)

    def uninstall(self) -> None:
        self.system.network.remove_delay_hook(self._on_delay)

    def _on_delay(self, msg: Message, delay: float) -> float:
        now = self._sim.now
        if not (self.start <= now < self.start + self.duration):
            return delay
        if ((self._group_of[msg.src] in self.groups)
                == (self._group_of[msg.dst] in self.groups)):
            return delay  # both sides of the boundary, or neither
        if not self._gate():
            return delay
        return delay + self.spike


#: The phases :func:`classify_kind` maps message kinds to.
PHASES = ("protocol", "consensus", "failure_detection", "transport")


def classify_kind(kind: str) -> str:
    """Map a message kind to its protocol phase (one of :data:`PHASES`).

    Consensus substrates nest their namespace under the protocol's
    (``amc.cons.propose``), so classification matches anywhere in the
    dotted path; the failure detector owns the ``fd`` root and the
    reliable transport's control traffic the ``tsp`` root (its *data*
    frames keep their protocol kinds and classify as usual).
    """
    if kind.startswith("fd."):
        return "failure_detection"
    if kind.startswith("tsp."):
        return "transport"
    if ".cons." in kind or kind.startswith("cons."):
        return "consensus"
    return "protocol"


class PhaseCrashInjector(FaultInjector):
    """Crash a target process at a protocol-phase boundary.

    Params: ``target`` (pid, default 0), ``at_count`` (crash when the
    target handles its Nth matching message, default 3), and one of
    ``phase`` (a :func:`classify_kind` phase: ``"protocol"`` /
    ``"consensus"`` / ``"failure_detection"`` / ``"transport"``,
    default ``"consensus"``) or ``kind_contains`` (literal substring of
    the message kind, e.g. ``".cons.accept"``).

    Implemented as a delivery filter: matching deliveries are counted;
    from the ``at_count``-th onwards each is a fault opportunity, and
    the first one through the shrink window crashes the target right
    before the handler would run (the copy is then dropped, exactly as
    if the crash had happened an instant earlier).  The crash is
    recorded on the run's :class:`CrashSchedule` so checkers treat the
    target as faulty.
    """

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.target = int(params.get("target", 0))
        self.at_count = int(params.get("at_count", 3))
        self.kind_contains = params.get("kind_contains")
        self.phase = params.get("phase",
                                None if self.kind_contains else "consensus")
        if self.at_count < 1:
            raise ValueError(f"phase-crash at_count must be >= 1, "
                             f"got {self.at_count}")
        if self.kind_contains is not None and self.phase is not None:
            raise ValueError("phase-crash takes phase OR kind_contains, "
                             "not both")
        if self.phase is not None and self.phase not in PHASES:
            raise ValueError(f"phase-crash phase must be one of {PHASES}, "
                             f"got {self.phase!r}")
        self.matched = 0
        self.crashed_at: Optional[float] = None

    def validate(self) -> None:
        """The target must be expendable: majority survives its crash."""
        union = dict(self.system.crashes.crashes)
        union.setdefault(self.target, 0.0)
        CrashSchedule(union).validate(self.system.topology)

    def install(self) -> None:
        self.validate()
        self.system.network.add_delivery_filter(self._on_delivery)

    def uninstall(self) -> None:
        self.system.network.remove_delivery_filter(self._on_delivery)

    def _matches(self, msg: Message) -> bool:
        if msg.dst != self.target:
            return False
        if self.kind_contains is not None:
            return self.kind_contains in msg.kind
        return classify_kind(msg.kind) == self.phase

    def _on_delivery(self, msg: Message) -> bool:
        if self.crashed_at is not None or not self._matches(msg):
            return True
        self.matched += 1
        if self.matched < self.at_count:
            return True
        if not self._gate():
            return True
        now = self.system.sim.now
        self.crashed_at = now
        self.system.crashes.record_observed(self.target, now)
        self.system.network.process(self.target).crash()
        return False


class _LossyChannelInjector(FaultInjector):
    """Shared machinery of the lossy kinds: one seeded channel model.

    Common params: ``probability`` (per-copy fault probability in the
    good state), ``scope`` (``"all"``/``"inter"``/``"intra"``, default
    ``"all"``), ``until`` (virtual-time fault horizon, default None =
    forever), and the :class:`ChannelModel` burst knobs
    ``burst_probability``/``burst_enter``/``burst_exit`` (defaults off).

    The last admitted fault's virtual time is kept on
    ``last_fault_time`` so the stabilization checker can assert the
    horizon was honoured.
    """

    DEFAULT_PROBABILITY = 0.1

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.probability = float(
            params.get("probability", self.DEFAULT_PROBABILITY))
        self.scope = params.get("scope", "all")
        until = params.get("until")
        self.until = None if until is None else float(until)
        if self.scope not in ("all", "inter", "intra"):
            raise ValueError(f"{spec.kind} scope must be all/inter/intra, "
                             f"got {self.scope!r}")
        if self.until is not None and self.until < 0:
            raise ValueError(f"{spec.kind} until must be >= 0, "
                             f"got {self.until}")
        self.channel = ChannelModel(
            rng,
            self.probability,
            burst_probability=float(params.get("burst_probability", 0.0)),
            burst_enter=float(params.get("burst_enter", 0.0)),
            burst_exit=float(params.get("burst_exit", 0.25)),
        )
        self.last_fault_time: Optional[float] = None
        self._sim = system.sim

    def _decide(self, msg: Message) -> Optional[float]:
        """One per-copy fault decision; None means leave the copy alone.

        When the fault is admitted, the returned magnitude is uniform
        on [0, 1) and derived from the fault draw itself (the
        :class:`DelayReorderInjector` convention: one decision fixes
        the whole fault).  Draw discipline: zero draws out of scope,
        exactly two otherwise — the horizon and the shrink window gate
        *after* the draws, so narrowing either never shifts the stream.
        """
        if self.scope == "inter" and not msg.inter_group:
            return None
        if self.scope == "intra" and msg.inter_group:
            return None
        p = self.probability
        if self.channel.burst_enter == 0.0:
            # ChannelModel.roll's memoryless case, inlined: this runs
            # once per injector per wire copy.  Same two draws.
            draw = self.rng.random
            draw()
            u = draw()
            if u >= p:
                return None
        else:
            fault, u = self.channel.roll(msg.src, msg.dst)
            if not fault:
                return None
            if self.channel.in_burst(msg.src, msg.dst):
                p = self.channel.burst_probability
        now = self._sim.now
        if self.until is not None and now >= self.until:
            return None
        if not self._gate():
            return None
        self.last_fault_time = now
        return u / p


class DropInjector(_LossyChannelInjector):
    """Lose random message copies on the wire.

    Params: the :class:`_LossyChannelInjector` set.  Implemented as a
    delivery filter, so a dropped copy is accounted exactly like one
    addressed to a crashed process (``stats.dropped``); with
    ``burst_enter > 0`` losses cluster per link (Gilbert–Elliott).
    Heartbeats and transport acks are *not* exempt — loss must be
    indistinguishable from slowness at every layer above the wire.
    """

    def install(self) -> None:
        self.system.network.add_delivery_filter(self._on_delivery)

    def uninstall(self) -> None:
        self.system.network.remove_delivery_filter(self._on_delivery)

    def _on_delivery(self, msg: Message) -> bool:
        return self._decide(msg) is None


class DuplicateInjector(_LossyChannelInjector):
    """Re-deliver random copies a second time, later.

    Params: the :class:`_LossyChannelInjector` set plus
    ``extra_min``/``extra_max`` (bounds of the clone's extra delay
    beyond the original copy's, defaults 0.0/2.0).  Implemented as a
    delay hook that leaves the original copy's delay untouched and
    schedules one clone through :meth:`Network.inject_copy`, so the
    duplicate is a first-class wire copy: traced, counted, filtered
    and deduplicated like any other.
    """

    def __init__(self, spec, system, rng):
        super().__init__(spec, system, rng)
        params = spec.params_dict()
        self.extra_min = float(params.get("extra_min", 0.0))
        self.extra_max = float(params.get("extra_max", 2.0))
        if not 0.0 <= self.extra_min <= self.extra_max:
            raise ValueError(
                f"duplicate needs 0 <= extra_min <= extra_max, got "
                f"{self.extra_min}/{self.extra_max}")

    def install(self) -> None:
        self.system.network.add_delay_hook(self._on_delay)

    def uninstall(self) -> None:
        self.system.network.remove_delay_hook(self._on_delay)

    def _on_delay(self, msg: Message, delay: float) -> float:
        magnitude = self._decide(msg)
        if magnitude is not None:
            span = self.extra_max - self.extra_min
            self.system.network.inject_copy(
                msg, delay + self.extra_min + magnitude * span)
        return delay


class CorruptInjector(_LossyChannelInjector):
    """Damage random copies in flight (modeled frame corruption).

    Params: the :class:`_LossyChannelInjector` set (default
    ``probability`` 0.05).  A sequenced transport frame gets the
    checksum byte of its envelope frame word (``msg.wire``) XOR-damaged
    — mask derived from the fault draw, never zero, sequence bits
    intact — so the receiving transport *must* detect it and the damage
    degrades to a loss the retransmission machinery repairs.  An
    unsequenced copy — raw protocol traffic under ``transport="none"``,
    heartbeats, acks — is dropped outright, which is what a link-layer
    CRC does with a frame it cannot verify.

    The frame word is per copy (``send_many`` copies and injected
    duplicates share a payload dict but never an envelope), so damaging
    this copy can never bleed into its siblings.
    """

    DEFAULT_PROBABILITY = 0.05

    def install(self) -> None:
        self.system.network.add_delivery_filter(self._on_delivery)

    def uninstall(self) -> None:
        self.system.network.remove_delivery_filter(self._on_delivery)

    def _on_delivery(self, msg: Message) -> bool:
        magnitude = self._decide(msg)
        if magnitude is None:
            return True
        if msg.wire is None:
            return False  # unverifiable frame: the link CRC eats it
        mask = 1 + int(magnitude * 254.999)  # 1..255: always detectable
        msg.wire ^= mask
        return True


INJECTOR_TYPES: Dict[str, Callable[..., FaultInjector]] = {
    "link-skew": LinkSkewInjector,
    "delay-reorder": DelayReorderInjector,
    "partition-spike": PartitionSpikeInjector,
    "phase-crash": PhaseCrashInjector,
    "drop": DropInjector,
    "duplicate": DuplicateInjector,
    "corrupt": CorruptInjector,
}


class AppliedAdversary:
    """The live injectors of one adversary, attached to one system."""

    def __init__(self, spec: AdversarySpec,
                 injectors: List[FaultInjector]) -> None:
        self.spec = spec
        self.injectors = injectors

    @property
    def total_faults(self) -> int:
        return sum(inj.faults_injected for inj in self.injectors)

    def fault_counts(self) -> Dict[str, int]:
        """Faults injected per injector, keyed ``<index>:<kind>``."""
        return {
            f"{i}:{inj.spec.kind}": inj.faults_injected
            for i, inj in enumerate(self.injectors)
        }

    def uninstall(self) -> None:
        for injector in self.injectors:
            injector.uninstall()


def apply_adversary(system, spec: AdversarySpec) -> AppliedAdversary:
    """Build and install ``spec``'s injectors on a built system.

    Each injector gets its own named random stream
    (``adversary:<kind>:<occurrence>``) derived from the run's root
    seed, so adversarial perturbation is reproducible and independent
    of the network/workload streams.  Streams are keyed by kind and
    occurrence — not list position — so when the shrinker drops one
    injector from a composition, the survivors keep drawing exactly
    the fault streams they drew before.  Must run before the
    simulation starts; phase-crash targets are validated against the
    group-majority requirement here, failing fast like
    ``CrashSchedule.validate``.
    """
    injectors: List[FaultInjector] = []
    occurrences: Dict[str, int] = {}
    for ispec in spec.injectors:
        factory = INJECTOR_TYPES.get(ispec.kind)
        if factory is None:
            raise ValueError(
                f"unknown injector kind {ispec.kind!r}; "
                f"have {sorted(INJECTOR_TYPES)}"
            )
        occurrence = occurrences.get(ispec.kind, 0)
        occurrences[ispec.kind] = occurrence + 1
        rng = system.rng.stream(f"adversary:{ispec.kind}:{occurrence}")
        injectors.append(factory(ispec, system, rng))
    applied = AppliedAdversary(spec, injectors)
    installed: List[FaultInjector] = []
    try:
        for injector in injectors:
            injector.install()
            installed.append(injector)
    except Exception:
        for injector in installed:
            injector.uninstall()
        raise
    return applied
