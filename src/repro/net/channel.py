"""Seeded per-link channel fault decisions (drop/duplicate/corrupt).

The quasi-reliable network of :mod:`repro.net.network` never loses,
duplicates or corrupts a copy on its own — those faults are *injected*,
by the lossy adversary kinds of :mod:`repro.adversary.injectors`.  This
module holds the decision engine they share: a :class:`ChannelModel`
answers, per message copy, "does the fault fire on this copy, and with
what magnitude?", from the injector's own named random stream.

Two properties matter more than realism here:

* **Constant draw discipline** — :meth:`ChannelModel.roll` consumes
  exactly two uniform draws per observed copy (one burst-state
  transition, one fault decision) whether or not the fault fires,
  whether or not the injector's fault window or horizon admits it.
  Narrowing the shrinker's ``skip_faults``/``max_faults`` window or the
  ``until`` horizon therefore never shifts the random stream — the
  alignment the counterexample shrinker's bisection relies on, exactly
  as documented for :class:`~repro.adversary.injectors.FaultInjector`.

* **Per-link burst correlation** — real loss clusters.  The model is a
  two-state Gilbert–Elliott chain per ``(src, dst)`` process pair: in
  the *good* state faults fire with ``probability``, in the *bad*
  (burst) state with ``burst_probability``; ``burst_enter`` /
  ``burst_exit`` govern the per-copy transition chances.  With the
  defaults (``burst_enter=0``) the chain never leaves the good state
  and the model degenerates to i.i.d. Bernoulli loss — but it still
  spends its transition draw, so turning bursts on or off in a spec
  does not realign every later decision by accident.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple


class ChannelModel:
    """Per-link seeded fault decisions with optional burst correlation."""

    __slots__ = ("rng", "probability", "burst_probability", "burst_enter",
                 "burst_exit", "_bad")

    def __init__(
        self,
        rng: random.Random,
        probability: float,
        burst_probability: float = 0.0,
        burst_enter: float = 0.0,
        burst_exit: float = 0.25,
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(
                f"channel fault probability must be in (0, 1], "
                f"got {probability}"
            )
        for name, value in (("burst_probability", burst_probability),
                            ("burst_enter", burst_enter),
                            ("burst_exit", burst_exit)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if burst_enter > 0.0 and burst_probability == 0.0:
            raise ValueError(
                "burst_enter > 0 needs a burst_probability > 0 "
                "(a burst state that never faults is a no-op)"
            )
        self.rng = rng
        self.probability = probability
        self.burst_probability = burst_probability
        self.burst_enter = burst_enter
        self.burst_exit = burst_exit
        # (src pid, dst pid) -> currently in the burst (bad) state.
        self._bad: Dict[Tuple[int, int], bool] = {}

    def roll(self, src: int, dst: int) -> Tuple[bool, float]:
        """Decide whether the fault fires on one copy of link src→dst.

        Returns ``(fault, u)`` where ``u`` is the fault-decision draw;
        when the fault fires, ``u / p`` is uniform on [0, 1) and
        injectors derive fault magnitudes (extra delay, damage mask)
        from it, so one decision fixes the whole fault — the
        :class:`~repro.adversary.injectors.DelayReorderInjector`
        convention.  Always exactly two draws (see module docstring).
        """
        rng = self.rng
        if self.burst_enter == 0.0:
            # Memoryless: the chain can never leave the good state, so
            # there is no per-link state to read or write — but the
            # transition draw is still spent (see module docstring).
            rng.random()
            u = rng.random()
            return u < self.probability, u
        link = (src, dst)
        bad = self._bad.get(link, False)
        t = rng.random()
        if bad:
            if t < self.burst_exit:
                bad = False
        elif t < self.burst_enter:
            bad = True
        self._bad[link] = bad
        u = rng.random()
        p = self.burst_probability if bad else self.probability
        return u < p, u

    def in_burst(self, src: int, dst: int) -> bool:
        """Whether the link is currently in its burst (bad) state."""
        return self._bad.get((src, dst), False)
