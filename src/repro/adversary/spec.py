"""Declarative adversary specifications.

An :class:`AdversarySpec` names a composition of seeded fault injectors
— per-link latency skew, bounded delay/reorder, group-partition latency
spikes, phase-targeted crashes — expressed entirely in plain picklable
data, exactly like :class:`~repro.campaigns.spec.ScenarioSpec`.  The
spec carries no live objects, so the same value can travel three ways:

* as the ``adversary=`` axis of a campaign scenario (by registry name);
* into :func:`repro.adversary.injectors.apply_adversary`, which builds
  the live injectors against a freshly constructed system;
* into a counterexample artifact, serialised via :meth:`to_dict` and
  rebuilt bit-identically by :meth:`from_dict` at replay time.

Every injector draws randomness only from its own named stream of the
run's root seed, so an adversary perturbs the schedule without touching
the workload/latency streams — the property that makes shrinking
meaningful: narrowing an injector's fault window leaves every other
random decision of the run in place.

Fault windows
-------------
Each injector exposes two shrink knobs shared across kinds:
``skip_faults`` ignores the first k fault opportunities and
``max_faults`` caps how many faults fire.  Together they select a
window of the injector's fault stream; the shrinker bisects both ends
to find the minimal set of faults that still breaks the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Injector kinds understood by :mod:`repro.adversary.injectors`.  The
#: lossy kinds (drop/duplicate/corrupt) break the quasi-reliable link
#: axiom on purpose — pair them with ``transport="reliable"`` unless the
#: run is *supposed* to fail (see the injectors module docstring).
INJECTOR_KINDS = ("link-skew", "delay-reorder", "partition-spike",
                  "phase-crash", "drop", "duplicate", "corrupt")


@dataclass(frozen=True)
class InjectorSpec:
    """One seeded fault injector: kind, knobs, and its fault window.

    ``params`` is a tuple of (name, value) pairs (kept as pairs so the
    spec stays hashable-by-value and picklable, like
    ``ScenarioSpec.protocol_kwargs``).  ``skip_faults``/``max_faults``
    bound the injector's fault window; ``max_faults=None`` means
    unlimited.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    skip_faults: int = 0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in INJECTOR_KINDS:
            raise ValueError(
                f"unknown injector kind {self.kind!r}; "
                f"have {list(INJECTOR_KINDS)}"
            )
        if self.skip_faults < 0:
            raise ValueError(f"skip_faults must be >= 0, "
                             f"got {self.skip_faults}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(f"max_faults must be >= 0 or None, "
                             f"got {self.max_faults}")

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def with_window(self, skip_faults: Optional[int] = None,
                    max_faults: Optional[int] = "unchanged",
                    ) -> "InjectorSpec":
        """A copy with one or both fault-window bounds replaced."""
        out = self
        if skip_faults is not None:
            out = replace(out, skip_faults=skip_faults)
        if max_faults != "unchanged":
            out = replace(out, max_faults=max_faults)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": [[name, value] for name, value in self.params],
            "skip_faults": self.skip_faults,
            "max_faults": self.max_faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InjectorSpec":
        return cls(
            kind=data["kind"],
            params=tuple((name, _revive(value))
                         for name, value in data.get("params", [])),
            skip_faults=data.get("skip_faults", 0),
            max_faults=data.get("max_faults"),
        )


def _revive(value):
    """JSON round-trip turns tuples into lists; turn them back.

    Injector params that are sequences (partition windows, group sets)
    are tuples in the frozen spec, so equality between an original spec
    and its JSON-revived twin holds exactly.
    """
    if isinstance(value, list):
        return tuple(_revive(v) for v in value)
    return value


@dataclass(frozen=True)
class AdversarySpec:
    """A named composition of fault injectors."""

    name: str
    injectors: Tuple[InjectorSpec, ...] = ()

    @property
    def is_benign(self) -> bool:
        return not self.injectors

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "injectors": [spec.to_dict() for spec in self.injectors],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdversarySpec":
        return cls(
            name=data["name"],
            injectors=tuple(InjectorSpec.from_dict(d)
                            for d in data.get("injectors", [])),
        )

    def describe(self) -> str:
        if self.is_benign:
            return "benign (no injectors)"
        return " + ".join(spec.kind for spec in self.injectors)


# ----------------------------------------------------------------------
# Built-in adversaries
# ----------------------------------------------------------------------
def _builtin_adversaries() -> Dict[str, AdversarySpec]:
    return {
        "none": AdversarySpec(name="none"),
        # Every copy leaving group 0 for another group takes 5x its
        # sampled latency: the slow-replica scenario, stressing the
        # protocols' tolerance to persistently skewed links.
        "link-skew": AdversarySpec(
            name="link-skew",
            injectors=(InjectorSpec(
                kind="link-skew",
                params=(("factor", 5.0), ("src_gid", 0)),
            ),),
        ),
        # ~15% of copies are held back an extra 0.5-5 time units,
        # reordering them against later traffic on the same link —
        # the strongest legal perturbation of a quasi-reliable (non-
        # FIFO) network short of crashing someone.
        "delay-reorder": AdversarySpec(
            name="delay-reorder",
            injectors=(InjectorSpec(
                kind="delay-reorder",
                params=(("probability", 0.15), ("extra_min", 0.5),
                        ("extra_max", 5.0)),
            ),),
        ),
        # Group 0 is latency-partitioned from the rest of the system
        # during [5, 20): copies crossing the boundary take +10 time
        # units, then the spike lifts — the transient-partition pattern
        # quasi-reliability permits (delayed, never lost).
        "partition-spike": AdversarySpec(
            name="partition-spike",
            injectors=(InjectorSpec(
                kind="partition-spike",
                params=(("start", 5.0), ("duration", 15.0),
                        ("spike", 10.0), ("groups", (0,))),
            ),),
        ),
        # Crash process 0 the moment it handles its 3rd consensus
        # message: a phase-boundary crash in the middle of an agreement
        # round, the timing hand-crafted crash schedules rarely hit.
        "phase-crash": AdversarySpec(
            name="phase-crash",
            injectors=(InjectorSpec(
                kind="phase-crash",
                params=(("target", 0), ("phase", "consensus"),
                        ("at_count", 3)),
            ),),
        ),
        # Lossy channels, three severities plus a bursty variant.  All
        # four stop injecting at t=25 (the ``until`` horizon) so a
        # 20-time-unit workload's tail traffic and the transport's
        # retransmissions get a fault-free suffix to stabilize in —
        # the shape the stabilization checker certifies.
        "lossy-light": AdversarySpec(
            name="lossy-light",
            injectors=(
                InjectorSpec(kind="drop",
                             params=(("probability", 0.05),
                                     ("until", 25.0))),
                InjectorSpec(kind="duplicate",
                             params=(("probability", 0.05),
                                     ("until", 25.0))),
                InjectorSpec(kind="corrupt",
                             params=(("probability", 0.02),
                                     ("until", 25.0))),
            ),
        ),
        "lossy-medium": AdversarySpec(
            name="lossy-medium",
            injectors=(
                InjectorSpec(kind="drop",
                             params=(("probability", 0.15),
                                     ("until", 25.0))),
                InjectorSpec(kind="duplicate",
                             params=(("probability", 0.10),
                                     ("until", 25.0))),
                InjectorSpec(kind="corrupt",
                             params=(("probability", 0.05),
                                     ("until", 25.0))),
            ),
        ),
        "lossy-heavy": AdversarySpec(
            name="lossy-heavy",
            injectors=(
                InjectorSpec(kind="drop",
                             params=(("probability", 0.30),
                                     ("until", 25.0))),
                InjectorSpec(kind="duplicate",
                             params=(("probability", 0.10),
                                     ("until", 25.0))),
                InjectorSpec(kind="corrupt",
                             params=(("probability", 0.10),
                                     ("until", 25.0))),
            ),
        ),
        # Gilbert–Elliott bursts: a mostly-clean wire (5% loss) whose
        # links fall into 60%-loss bursts and claw their way out —
        # clustered loss stresses retransmission backoff much harder
        # than the same average rate spread i.i.d.
        "lossy-burst": AdversarySpec(
            name="lossy-burst",
            injectors=(
                InjectorSpec(kind="drop",
                             params=(("probability", 0.05),
                                     ("burst_probability", 0.6),
                                     ("burst_enter", 0.05),
                                     ("burst_exit", 0.2),
                                     ("until", 25.0))),
                InjectorSpec(kind="duplicate",
                             params=(("probability", 0.05),
                                     ("until", 25.0))),
            ),
        ),
        # Everything at once: the torture composition.
        "chaos": AdversarySpec(
            name="chaos",
            injectors=(
                InjectorSpec(
                    kind="delay-reorder",
                    params=(("probability", 0.1), ("extra_min", 0.5),
                            ("extra_max", 4.0)),
                ),
                InjectorSpec(
                    kind="partition-spike",
                    params=(("start", 8.0), ("duration", 10.0),
                            ("spike", 8.0), ("groups", (0,))),
                ),
                InjectorSpec(
                    kind="phase-crash",
                    params=(("target", 0), ("phase", "consensus"),
                            ("at_count", 5)),
                ),
            ),
        ),
    }


ADVERSARIES: Dict[str, AdversarySpec] = _builtin_adversaries()


def get_adversary(name: str) -> AdversarySpec:
    """Look a built-in adversary up by name."""
    if name not in ADVERSARIES:
        raise KeyError(
            f"unknown adversary {name!r}; have {sorted(ADVERSARIES)}"
        )
    return ADVERSARIES[name]
