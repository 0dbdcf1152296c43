"""Self-stabilization checker for lossy-channel runs.

The lossy adversary kinds carry an ``until`` horizon: after that
virtual time the channel behaves again.  A run *self-stabilizes* when,
once the faults stop, every layer returns to a legal quiescent state on
its own — no operator, no reset:

* the **kernel** drains: no event (retransmission timer, pending ack)
  keeps the simulation alive forever;
* the **transport** drains: between correct endpoints nothing is left
  unacknowledged at any sender, and no receiver still holds a sequence
  seen above its watermark — the transport releases on arrival, so a
  leftover there is a frame below it that never arrived (links with a
  crashed endpoint are exempt — quasi-reliability promises nothing
  across them);
* the **adversary honoured its horizon**: no fault fired at or after
  ``until`` (guards the injectors' contract, without which the other
  two clauses would be vacuously checking a fault-free run);
* the **protocol settled**: the streaming observer saw the last
  A-Deliver at some finite time, and if a horizon exists the check
  reports how long after it the system kept working — the
  stabilization time, the quantity the lossy-net campaign tables.

"Self-stabilizes" is meant in that weaker sense: every run starts from
the protocols' and the transport's initial state, and the check is that
the run *drains* once the faults stop at ``until``.  It is not
Dolev et al.'s sense, convergence from an *arbitrary* state (transient
corruption of protocol or transport memory); no adversary here starts
a run, or puts one, in such a state.

The safety properties themselves (validity, agreement, prefix order,
integrity) stay with :mod:`repro.checkers.properties`; campaigns pair
``"stabilization"`` with ``"properties"`` so a verdict of all-ok reads
"converged, *and* converged to a correct state".

:class:`StreamingStabilizationChecker` is the run-time half: a (pid,
msg) delivery hook that tracks the protocol's last activity
incrementally, so the post-run check needs no message trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkers.properties import PropertyViolation


class StabilizationViolation(PropertyViolation):
    """The run failed to return to a quiescent legal state."""


class StreamingStabilizationChecker:
    """Incremental observer of protocol-level settling.

    Subscribes to every A-Deliver via ``System.add_delivery_hook``;
    keeps only two scalars, so it is safe to leave on in large
    campaigns (unlike the full message trace).
    """

    def __init__(self) -> None:
        self.deliveries = 0
        self.last_delivery_at: Optional[float] = None
        self._sim = None

    def attach(self, system) -> "StreamingStabilizationChecker":
        self._sim = system.sim
        system.add_delivery_hook(self.on_delivery)
        return self

    def on_delivery(self, pid: int, msg) -> None:
        self.deliveries += 1
        self.last_delivery_at = self._sim.now


@dataclass
class StabilizationReport:
    """Outcome of a stabilization check."""

    stabilized: bool
    #: Virtual time of the last admitted channel fault (None: no lossy
    #: injector fired).
    last_fault_at: Optional[float] = None
    #: The earliest fault horizon among the lossy injectors (None: no
    #: horizon configured).
    horizon: Optional[float] = None
    #: Virtual time of the last A-Deliver (None: streaming checker not
    #: installed, or nothing was delivered).
    last_delivery_at: Optional[float] = None
    #: ``last_delivery_at - horizon`` when both exist and the delivery
    #: came after the horizon; 0.0 when the system settled before the
    #: faults even stopped.
    settle_after_horizon: Optional[float] = None


def _lossy_injectors(applied):
    from repro.adversary.injectors import _LossyChannelInjector

    if applied is None:
        return []
    return [inj for inj in applied.injectors
            if isinstance(inj, _LossyChannelInjector)]


def check_stabilization(system) -> StabilizationReport:
    """Assert the run self-stabilized (see module docstring).

    Expects the simulation to have been run to quiescence already
    (``System.run_quiescent``); reads the live injectors from
    ``system.applied_adversary`` and the streaming observer from
    ``system.stabilization_checker`` when the campaign runner stashed
    them, and degrades gracefully when either is absent — a fault-free
    run with a mounted transport is simply required to have drained it.
    """
    pending = system.sim.pending_events
    if pending:
        raise StabilizationViolation(
            f"the event queue still holds {pending} event(s) after the "
            f"run: the system did not quiesce, let alone stabilize"
        )

    transport = getattr(system, "transport", None)
    if transport is not None:
        outstanding = transport.outstanding()
        stuck = {kind: links for kind, links in outstanding.items() if links}
        if stuck:
            raise StabilizationViolation(
                f"transport state between correct endpoints did not "
                f"drain: {stuck} (unacked = sender link -> frames never "
                f"acknowledged, out_of_order = receiver link -> frames "
                f"released above a sequence gap never filled)"
            )

    last_fault: Optional[float] = None
    horizon: Optional[float] = None
    applied = getattr(system, "applied_adversary", None)
    for injector in _lossy_injectors(applied):
        when = injector.last_fault_time
        if when is not None and (last_fault is None or when > last_fault):
            last_fault = when
        if injector.until is not None and (horizon is None
                                           or injector.until < horizon):
            horizon = injector.until
        if (injector.until is not None and when is not None
                and when >= injector.until):
            raise StabilizationViolation(
                f"{injector.spec.kind} injector fired at t={when:g}, at "
                f"or past its until={injector.until:g} horizon — the "
                f"faults never stopped, so stabilization is unfalsifiable"
            )

    checker = getattr(system, "stabilization_checker", None)
    last_delivery = checker.last_delivery_at if checker is not None else None
    settle: Optional[float] = None
    if last_delivery is not None and horizon is not None:
        settle = max(0.0, last_delivery - horizon)
    return StabilizationReport(
        stabilized=True, last_fault_at=last_fault, horizon=horizon,
        last_delivery_at=last_delivery, settle_after_horizon=settle,
    )
