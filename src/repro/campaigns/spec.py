"""Declarative scenario specifications and matrix expansion.

A :class:`ScenarioSpec` is a *plan* for one simulated run — protocol,
topology, latency model, workload, crash schedule, checkers and metric
extractors — expressed entirely in plain picklable data.  Because the
spec carries no live objects (no RNGs, no closures, no built systems),
the campaign runner can ship it to a worker process, rebuild the whole
simulation there from the (spec, seed) pair, and still guarantee the
result is bit-identical to a serial run: every source of randomness is
derived from the seed inside the worker.

The sub-specs (:class:`LatencySpec`, :class:`WorkloadSpec`,
:class:`DestinationSpec`, :class:`CrashSpec`) mirror the imperative
helpers in :mod:`repro.net.topology`, :mod:`repro.workload.generators`
and :mod:`repro.failure.schedule`; each knows how to ``build`` its live
counterpart.  :func:`matrix` expands a base spec along declared axes
(dotted field paths) into the cartesian grid of scenarios — the paper's
claims only hold *across* such grids, never at a single point.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.failure.schedule import CrashSchedule
from repro.net.topology import LatencyModel, Topology
from repro.store.spec import StoreSpec
from repro.workload.generators import (
    CastPlan,
    all_groups,
    burst_workload,
    fixed_groups,
    periodic_workload,
    poisson_workload,
    uniform_k_groups,
    zipf_group_count,
)


# ----------------------------------------------------------------------
# Latency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySpec:
    """Declarative stand-in for a :class:`LatencyModel`.

    ``kind`` is ``"logical"`` (unit inter-group links, degree-reading)
    or ``"wan"`` (milliseconds with exponential jitter).
    """

    kind: str = "logical"
    intra_ms: float = 1.0
    inter_ms: float = 100.0
    intra_jitter_ms: float = 0.1
    inter_jitter_ms: float = 5.0

    def build(self) -> LatencyModel:
        if self.kind == "logical":
            return LatencyModel.logical()
        if self.kind == "wan":
            return LatencyModel.wan(
                intra_ms=self.intra_ms, inter_ms=self.inter_ms,
                intra_jitter_ms=self.intra_jitter_ms,
                inter_jitter_ms=self.inter_jitter_ms,
            )
        raise ValueError(f"unknown latency kind {self.kind!r}")

    @classmethod
    def logical(cls) -> "LatencySpec":
        return cls(kind="logical")

    @classmethod
    def wan(cls, intra_ms: float = 1.0, inter_ms: float = 100.0,
            intra_jitter_ms: float = 0.1,
            inter_jitter_ms: float = 5.0) -> "LatencySpec":
        return cls(kind="wan", intra_ms=intra_ms, inter_ms=inter_ms,
                   intra_jitter_ms=intra_jitter_ms,
                   inter_jitter_ms=inter_jitter_ms)


# ----------------------------------------------------------------------
# Destinations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DestinationSpec:
    """Declarative destination chooser.

    Kinds: ``all`` (broadcast), ``fixed`` (always ``groups``),
    ``uniform-k`` (k uniformly random groups) and ``zipf`` (Zipf-skewed
    destination count up to ``max_k`` — mostly-local traffic).
    """

    kind: str = "all"
    groups: Tuple[int, ...] = ()
    k: int = 2
    max_k: int = 2
    skew: float = 1.5
    include_sender_group: bool = True

    def build(self):
        if self.kind == "all":
            return all_groups
        if self.kind == "fixed":
            return fixed_groups(self.groups)
        if self.kind == "uniform-k":
            return uniform_k_groups(self.k, self.include_sender_group)
        if self.kind == "zipf":
            return zipf_group_count(self.max_k, self.skew,
                                    self.include_sender_group)
        raise ValueError(f"unknown destination kind {self.kind!r}")


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload plan: which generator, with which knobs.

    Only the fields relevant to ``kind`` are read: ``rate``/``duration``
    for ``poisson``, ``period``/``count`` for ``periodic``,
    ``bursts``/``burst_size``/``gap``/``spread`` for ``burst``.
    """

    kind: str = "periodic"
    destinations: DestinationSpec = field(default_factory=DestinationSpec)
    senders: Optional[Tuple[int, ...]] = None
    start: float = 0.0
    # poisson
    rate: float = 1.0
    duration: float = 10.0
    # periodic
    period: float = 1.0
    count: int = 10
    # burst
    bursts: int = 3
    burst_size: int = 10
    gap: float = 10.0
    spread: float = 0.5

    def plans(self, topology: Topology,
              rng: random.Random) -> List[CastPlan]:
        """Materialise the plan for ``topology`` using ``rng``."""
        destinations = self.destinations.build()
        if self.kind == "poisson":
            return poisson_workload(
                topology, rng, rate=self.rate, duration=self.duration,
                destinations=destinations, senders=self.senders,
                start=self.start,
            )
        if self.kind == "periodic":
            return periodic_workload(
                topology, period=self.period, count=self.count,
                destinations=destinations, senders=self.senders,
                start=self.start, rng=rng,
            )
        if self.kind == "burst":
            return burst_workload(
                topology, rng, bursts=self.bursts,
                burst_size=self.burst_size, gap=self.gap,
                destinations=destinations, senders=self.senders,
                spread=self.spread, start=self.start,
            )
        raise ValueError(f"unknown workload kind {self.kind!r}")


# ----------------------------------------------------------------------
# Crashes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashSpec:
    """Declarative crash schedule.

    ``none`` is failure-free; ``explicit`` uses the literal
    ``crashes`` pairs; ``random-minority`` draws a validate-safe
    strict-minority-per-group schedule from the run's seed (so every
    worker of a campaign crashes exactly the same processes).
    """

    kind: str = "none"
    crashes: Tuple[Tuple[int, float], ...] = ()
    window: float = 100.0
    probability: float = 0.5

    def build(self, topology: Topology,
              rng: random.Random) -> CrashSchedule:
        if self.kind == "none":
            return CrashSchedule.none()
        if self.kind == "explicit":
            return CrashSchedule(dict(self.crashes))
        if self.kind == "random-minority":
            return CrashSchedule.random_minority(
                topology, rng, window=self.window,
                crash_probability=self.probability,
            )
        raise ValueError(f"unknown crash kind {self.kind!r}")


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully declarative scenario: everything a worker needs.

    ``checkers`` names entries of
    :data:`repro.campaigns.runner.CHECKERS`; requesting ``genuineness``
    automatically builds the system with the message trace enabled.
    ``metrics`` names entries of
    :data:`repro.campaigns.metrics.EXTRACTORS`.
    ``protocol_kwargs`` is a tuple of (name, value) pairs forwarded to
    the protocol factory (tuples keep the spec hashable-by-value and
    picklable).
    """

    name: str
    protocol: str = "a1"
    group_sizes: Tuple[int, ...] = (3, 3)
    latency: LatencySpec = field(default_factory=LatencySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    crashes: CrashSpec = field(default_factory=CrashSpec)
    # Transactional-store scenario (None = plain cast workload).  When
    # set, the runner mounts a StoreCluster on the built system and the
    # ``workload`` field is ignored — clients issue the transactions.
    store: Optional[StoreSpec] = None
    seeds: Tuple[int, ...] = (1,)
    checkers: Tuple[str, ...] = ("properties",)
    metrics: Tuple[str, ...] = ("core", "latency", "degrees", "traffic")
    # Named adversary from :data:`repro.adversary.spec.ADVERSARIES`
    # ("none" = benign): a grid axis like any other dotted field path,
    # resolved and applied by the campaign runner after build_system.
    adversary: str = "none"
    # "none" (raw quasi-reliable links) or "reliable" (mount the
    # retransmitting transport of :mod:`repro.transport.reliable`
    # beneath the protocol — what makes the lossy adversary kinds
    # survivable).  Gridable like any other axis.
    transport: str = "none"
    detector: str = "perfect"
    detector_delay: float = 5.0
    stabilise_at: float = 0.0
    # Heartbeat-detector knobs (used when detector is "heartbeat" or
    # "heartbeat-elided"); the horizon bounds heartbeat traffic so
    # finite workloads still reach quiescence in message mode.
    heartbeat_period: float = 10.0
    heartbeat_timeout: float = 35.0
    heartbeat_horizon: Optional[float] = None
    start_rounds: bool = False
    max_events: int = 10_000_000
    protocol_kwargs: Tuple[Tuple[str, object], ...] = ()

    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.protocol_kwargs)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary for campaign artefacts."""
        out = {
            "protocol": self.protocol,
            "group_sizes": list(self.group_sizes),
            "latency": self.latency.kind,
            "workload": self.workload.kind,
            "crashes": self.crashes.kind,
            "adversary": self.adversary,
            "transport": self.transport,
            "detector": self.detector,
            "checkers": list(self.checkers),
            "seeds": list(self.seeds),
        }
        if self.store is not None:
            out["store"] = {
                "routing": self.store.routing,
                "n_keys": self.store.n_keys,
                "data_groups": (list(self.store.data_groups)
                                if self.store.data_groups is not None
                                else None),
                "read_fraction": self.store.read_fraction,
                "multi_partition_fraction":
                    self.store.multi_partition_fraction,
            }
        return out

    # ------------------------------------------------------------------
    # Lossless (de)serialisation — replay artifacts depend on this
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The complete spec as JSON-compatible plain data.

        Unlike :meth:`describe` (a human-oriented summary) this is
        lossless: ``ScenarioSpec.from_dict(spec.to_dict()) == spec``,
        which is what lets adversary counterexample artifacts replay a
        run bit-identically.  ``protocol_kwargs`` values must be plain
        data for the round trip to survive JSON.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (JSON-safe)."""
        data = dict(data)
        data["group_sizes"] = tuple(data["group_sizes"])
        data["latency"] = LatencySpec(**data["latency"])
        workload = dict(data["workload"])
        destinations = dict(workload["destinations"])
        destinations["groups"] = tuple(destinations["groups"])
        workload["destinations"] = DestinationSpec(**destinations)
        if workload.get("senders") is not None:
            workload["senders"] = tuple(workload["senders"])
        data["workload"] = WorkloadSpec(**workload)
        crashes = dict(data["crashes"])
        crashes["crashes"] = tuple(
            (pid, when) for pid, when in crashes["crashes"])
        data["crashes"] = CrashSpec(**crashes)
        # ``store`` is absent in pre-store artifacts (they replay as
        # plain cast scenarios) and None for non-store scenarios.
        if data.get("store") is not None:
            data["store"] = StoreSpec.from_dict(data["store"])
        for name in ("seeds", "checkers", "metrics"):
            data[name] = tuple(data[name])
        data["protocol_kwargs"] = tuple(
            (key, value) for key, value in data["protocol_kwargs"])
        return cls(**data)


# ----------------------------------------------------------------------
# Matrix expansion
# ----------------------------------------------------------------------
def _replace_path(obj, path: Sequence[str], value):
    """Rebuild nested frozen dataclasses with one field changed."""
    head = path[0]
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"cannot descend into {type(obj).__name__}")
    if head not in {f.name for f in dataclasses.fields(obj)}:
        raise KeyError(
            f"{type(obj).__name__} has no field {head!r}"
        )
    if len(path) == 1:
        return dataclasses.replace(obj, **{head: value})
    child = _replace_path(getattr(obj, head), path[1:], value)
    return dataclasses.replace(obj, **{head: child})


def _axis_label(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        return "x".join(_axis_label(v) for v in value)
    return str(value)


def matrix(base: ScenarioSpec,
           axes: Mapping[str, Sequence]) -> List[ScenarioSpec]:
    """Expand ``base`` along ``axes`` into a cartesian scenario grid.

    Axis keys are dotted field paths into the spec
    (``"protocol"``, ``"workload.rate"``, ``"crashes.window"``, ...);
    axis values are the points to take.  Scenario names are
    ``<base>/<key>=<value>/...`` so every grid point is addressable in
    campaign artefacts.

    >>> specs = matrix(ScenarioSpec(name="demo"),
    ...                {"protocol": ["a1", "skeen"],
    ...                 "workload.count": [5, 10]})
    >>> [s.name for s in specs][:2]
    ['demo/protocol=a1/count=5', 'demo/protocol=a1/count=10']
    """
    if not axes:
        return [base]
    keys = list(axes)
    grids = [list(axes[k]) for k in keys]
    if any(not g for g in grids):
        raise ValueError("every axis needs at least one value")
    specs: List[ScenarioSpec] = []
    for combo in itertools.product(*grids):
        spec = base
        parts = [base.name]
        for key, value in zip(keys, combo):
            spec = _replace_path(spec, key.split("."), value)
            parts.append(f"{key.rsplit('.', 1)[-1]}={_axis_label(value)}")
        specs.append(dataclasses.replace(spec, name="/".join(parts)))
    return specs


def with_seeds(specs: Sequence[ScenarioSpec],
               seeds: Sequence[int]) -> List[ScenarioSpec]:
    """Override the seed list of every spec (CLI ``--seeds``)."""
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    return [dataclasses.replace(s, seeds=seeds) for s in specs]
