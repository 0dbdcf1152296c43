"""Algorithm A2 — fault-tolerant atomic broadcast with latency degree 1.

Faithful implementation of the paper's Algorithm A2 (Section 5).
Processes execute a sequence of *rounds*.  In round K:

1. inside each group, consensus instance K fixes the group's **message
   bundle** — messages R-Delivered but not yet A-Delivered (possibly
   none);
2. groups exchange bundles; once a process holds round-K bundles from
   every group it A-Delivers their union in a deterministic order.

Because rounds run *proactively* (a round may carry empty bundles), a
message that is broadcast while rounds are in flight rides the very next
bundle exchange and is delivered after a single inter-group message
delay — latency degree 1 (Theorem 5.1).

Quiescence (paper lines 21-23): the round counter K advances every
round, but ``Barrier`` — the last round a process intends to run — only
advances when a round actually delivered something.  After an idle
round, K > Barrier and the process stops proposing; with no traffic the
whole system goes silent (Proposition A.9).  A later broadcast restarts
the machinery: the caster's group starts round K again, and its bundle
pushes every other group's Barrier forward (line 10).  Such a "cold"
message pays latency degree 2 (Theorem 5.2) — the unavoidable price of
quiescence established by the paper's Section 3 lower bound.

Two rounds in flight
--------------------
Run one round at a time and every broadcast under load just misses the
round that is closing: it waits half a round on average for the next
proposal and then pays the hop — 1½δ, latency degree 2, for *every*
cast.  But round K+1's bundle depends only on this group's backlog,
never on other groups' round-K bundles.  So a process may **propose**
round K+1 while round K is still collecting bundles, as long as it still
**delivers** rounds strictly in order.

* What overlaps: the consensus instance and bundle exchange of round
  K+1 with the bundle exchange of round K — at most
  :data:`ROUNDS_IN_FLIGHT` rounds proposed and not completed, the extra
  one started no sooner than half a measured round after this process's
  previous proposal, so the two exchanges interleave and a cast waits ¼
  round on average instead of ½.
* What does not: completion.  Lines 16-19 (deliver round K once every
  group's round-K bundle is here, then move to K+1) and the head-round
  rule of lines 11-13 are exactly the paper's, so uniform prefix order
  and liveness are argued as in the paper.  A group's in-flight bundles
  are disjoint: a member proposes round K+1 only knowing its group's
  round-K decision, from the messages in *no* decided bundle.
* When: only while the load is everywhere.  An early round K+1 helps
  only if *every* group starts it early; a group with nothing to send
  joins it when round K completes (or when a bundle for K+1 arrives),
  as it always did, and then the early proposal has merely locked
  later casts out of K+1 — measured, one-sided load went from 1.56δ to
  2.52δ.  So the extra round is proposed only after a round in which
  every group's bundle carried something: a predicate of the round's
  content, hence the same at every process, in the spirit of lines
  22-23 ("the round was useful, expect more").  Under one-sided load
  it never holds and the run is the one-round run, event for event.
* Quiescence: ``Barrier`` moves as in the paper (a received bundle, or
  a useful completion), the extra round is proposed only for a fresh
  message or an obligation, and its timer is armed only then — an idle
  system arms nothing and drains exactly as before (Proposition A.9),
  with at most one empty round after the last useful one.
* Theorems 5.1 / 5.2: a cold cast still finds ``K > Barrier`` in every
  other group and pays 2; a cast into a warm system still rides the next
  proposal and pays 1 — under load there are twice as many of those.

When a round is examined
------------------------
Whether to propose reads only the round state — K, the next round to
propose, the decided bundles, ``Barrier``, the last round's timing, the
bundling window — plus ``fresh`` and the clock, and every event that
changes the round state looks at the round again: a decision, a bundle,
a completed round, the propose timer and ``start_rounds``.  An R-Deliver
only adds to ``fresh`` (and ``_heard``), which changes the answer in two
cases: ``fresh`` was empty, so a quiescent round now has something to
carry, or the last look waited for an instant that has now come, before
the propose timer fired.  Only then does an R-Deliver look again; any
other look would decide what the last one did.  So a round is examined
per round, not per R-Delivered copy, and it proposes the same value at
the same instant as a look per copy would
(``tests/unit/test_run_path_equivalence.py`` holds it to that oracle).

Delivery history
----------------
The paper's ADELIVERED set answers one question: is this R-Delivered
message already delivered?  Only a message of this process's *own*
group can be asked about — A2 R-MCasts inside the caster's group — and
reliable multicast R-Delivers each cast once.  So instead of every mid
ever delivered the endpoint keeps ``_heard`` (R-Delivered here, not yet
A-Delivered) and ``_unheard`` (A-Delivered here before its own
R-Deliver arrived; that R-Deliver drops the entry): both are bounded by
the messages in flight.  Round completion needs no filter either: a
message rides exactly one decided bundle of its caster's group, since a
member proposes only messages in no bundle decided so far (above), and
``check_all``'s integrity pass still catches a duplicate delivery.  An
R-Deliver of an ``_unheard`` mid, or of one riding a decided bundle,
leaves ``fresh`` as it was and so examines no round.

One batch per round
-------------------
Each of a round's bundles is a sorted tuple and, in a correct run, they
are disjoint.  So the round's A-Deliver batch is the bundles
concatenated in group-id order, sorted by id — no set union — and
resolved (:meth:`MessageCatalog.batch`); a mid in two bundles is kept
twice, for ``check_all``'s integrity pass to report.  Every process
completes round K from the same bundle objects (a decided value and a
bundle payload travel by reference), and the catalog holds the last
batch it built for the parts it was built from, so when the members
complete a round one after another the first builds it and the rest
take that very tuple.  A process whose bundles differ gets its own
batch, so a disagreement still reaches ``check_all``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set, Tuple

from repro.consensus.paxos import GroupConsensus
from repro.core.interfaces import (
    AppMessage,
    AtomicBroadcast,
    DeliveryHandler,
    MessageCatalog,
)
from repro.core.prediction import PaperPredictor, QuiescencePredictor
from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.net.topology import Topology
from repro.rmcast.reliable import ReliableMulticast
from repro.sim.process import Process

#: Rounds a group may have proposed and not yet completed, the extra
#: ones staggered 1/W of a round apart.  Measured on ``a2_bcast``
#: (README, "A2 under load"): W = 1 / 2 / 3 / 4 → p50 1.51 / 1.25 /
#: 1.17 / 1.13 δ for 1 / 2 / 3 / 4x the bundle copies and 1.00 / 0.90 /
#: 0.80 / 0.74x ``ops_per_s``.  A constant of the algorithm, not a
#: setting; tests patch it to 1 to measure the one-round run.
ROUNDS_IN_FLIGHT = 2


class RoundWait(NamedTuple):
    """What the head round of one endpoint is waiting on."""

    #: The round being completed (K).
    round: int
    #: Whether this group's decision for it is known here.
    decided: bool
    #: Groups whose bundle for it has not arrived, ascending.
    missing: Tuple[int, ...]

    def describe(self) -> str:
        """One line for :func:`repro.tools.render_waits`."""
        own = "known" if self.decided else "not decided yet"
        if not self.missing:
            return f"round {self.round} waits on its own group's decision"
        groups = ", ".join(str(gid) for gid in self.missing)
        return (f"round {self.round} waits on the bundle of group(s) "
                f"{groups}; own bundle {own}")


class AtomicBroadcastA2(AtomicBroadcast):
    """One process's endpoint of Algorithm A2."""

    #: What :func:`repro.tools.render_waits` prints when
    #: :meth:`blocked_on` is None.
    NOTHING_WAITS = "no round in flight"

    def __init__(
        self,
        process: Process,
        topology: Topology,
        detector: FailureDetector,
        retry_timeout: float = 50.0,
        relay_after: float = 20.0,
        propose_delay: float = 0.0,
        predictor: Optional[QuiescencePredictor] = None,
        namespace: str = "abc",
    ) -> None:
        """Attach an A2 endpoint to ``process``.

        Args:
            predictor: Quiescence-prediction strategy (paper §5.3's
                extension point).  Defaults to the paper's rule: stop
                after the first empty round.
            propose_delay: Optional bundling window.  When > 0 the
                process waits this long before proposing each round's
                bundle, re-reading its backlog at proposal time.  The
                asynchronous model allows any such scheduling, so this
                only *selects among admissible runs*: it realises the
                favourable run of Theorem 5.1 for a hand-placed cast,
                where a message broadcast while a round is starting
                slips into that round's bundle and is delivered with
                latency degree 1.  It buys that degree by *adding*
                sim-time latency — under load (÷10 ``a2_bcast``) 0 /
                0.05 / 0.2 / 0.5 read p50 1.509 / 1.539 / 1.605 / 1.738
                with one round in flight — so it is an experiment's
                device, not the way to degree 1 under load; that is the
                second round in flight (module docstring).
        """
        self.process = process
        self.topology = topology
        self.ns = namespace
        self.propose_delay = propose_delay
        self.predictor = predictor or PaperPredictor()
        # Told of every R-Delivered copy: skipped for a predictor that
        # keeps the base class's no-op.
        observe = self.predictor.observe_cast
        self._observe = (None if getattr(observe, "__func__", None)
                         is QuiescencePredictor.observe_cast else observe)
        self.my_gid = topology.group_of(process.pid)
        self.catalog = MessageCatalog.of(process.sim)
        self._records = self.catalog.record_map
        self._members = tuple(topology.members(self.my_gid))
        self._others = tuple(p for p in topology.processes
                             if topology.group_of(p) != self.my_gid)
        self._group_ids = tuple(topology.group_ids)
        self._other_groups = len(self._group_ids) - 1

        # Paper line 2-3: K=1, propK=1, sets empty, Barrier=0.
        self.k = 1
        self.prop_k = 1
        # RDELIVERED \ ADELIVERED, split by whether this group already
        # decided a bundle holding the message: ``fresh`` is what the
        # next proposal carries, ``_in_flight`` rides a decided bundle
        # of a round not completed yet.
        self.fresh: Set[str] = set()
        self._in_flight: Set[str] = set()
        # ADELIVERED, only while it can still be asked ("Delivery
        # history"): R-Delivered here and not yet A-Delivered, and
        # A-Delivered here before its own R-Deliver arrived.
        self._heard: Set[str] = set()
        self._unheard: Set[str] = set()
        self.barrier = 0
        # Other groups' bundles per round: msgs[x][gid] = mid tuple; this
        # group's decided bundles per round.  Rounds >= K only.
        self.msgs: Dict[int, Dict[int, tuple]] = {}
        self._own_bundle: Dict[int, tuple] = {}
        # Self-clocking of the extra round: when each in-flight round
        # was proposed (or its decision learned unproposed), the latest
        # of those instants, the propose -> complete span of the last
        # completed round, and whether every group's bundle in it
        # carried something.
        self._proposed_at: Dict[int, float] = {}
        self._last_proposed = 0.0
        self._round_time = 0.0
        self._all_loaded = False
        # When the round now up for proposal became proposable (the
        # bundling window opens then), and whether the one-shot timer
        # behind both waits is pending.
        self._eligible_since: Optional[float] = None
        self._timer_armed = False
        # The instant from which the last look at the proposable round
        # would propose it, had it looked again with the state it saw;
        # None unless that look waited for a time ("When a round is
        # examined").
        self._propose_due: Optional[float] = None
        self._propose_label = f"{self.ns}.propose"
        self._rounds_executed = 0
        self._useful_rounds = 0
        self._last_useful = 0
        self._wakeups = 0
        self._handler: Optional[DeliveryHandler] = None

        self.rmcast = ReliableMulticast(
            process, detector, relay_after=relay_after,
            namespace=f"{self.ns}.rmc",
        )
        self.rmcast.set_delivery_handler(self._on_rdeliver)
        # Raw decisions, not ConsensusSequence's ordered release: round
        # K+1's bundle must go out while round K is still completing.
        self.consensus = GroupConsensus(
            process, self._members, detector,
            retry_timeout=retry_timeout, namespace=f"{self.ns}.cons",
        )
        self.consensus.set_decision_handler(self._on_decided)
        self._k_bundle = f"{self.ns}.bundle"
        process.register_handler(self._k_bundle, self._on_bundle)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def rounds_executed(self) -> int:
        """Rounds this process completed (diagnostics, rate sweep)."""
        return self._rounds_executed

    @property
    def useful_rounds(self) -> int:
        """Completed rounds that delivered at least one message."""
        return self._useful_rounds

    @property
    def wakeups(self) -> int:
        """Rounds this process *initiated* from the reactive state.

        A wakeup is a proposal of the head round made with a non-empty
        backlog while ``K > Barrier`` — i.e. the quiescence prediction
        had said "no more traffic" and a message proved it wrong.  Every
        wakeup is a Theorem 5.2 situation: that message cannot be
        delivered below latency degree 2.
        """
        return self._wakeups

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def a_bcast(self, msg: AppMessage) -> None:
        """Paper Task 1 (lines 4-5): R-MCast m inside our own group."""
        rec = self._records.get(msg.mid)
        if rec is None or rec.msg is not msg:
            self.catalog.intern(msg)  # not cast through a System
        self.rmcast.multicast(self._members, {"mid": msg.mid}, mid=msg.mid)

    def start_rounds(self) -> None:
        """Warm the system up: behave as if round 1 must run.

        The paper's algorithm starts with Barrier = 0, so a freshly
        booted system is quiescent until the first broadcast (which then
        pays degree 2).  Experiments that need a *warm* system
        (Theorem 5.1) call this to set Barrier = 1, which bootstraps the
        proactive round pipeline.
        """
        self.barrier = max(self.barrier, 1)
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Tasks 2 and 3
    # ------------------------------------------------------------------
    def _on_rdeliver(self, payload: dict, mid: str, sender: int) -> None:
        """Paper lines 6-7 (``mid`` is the message's own: see a_bcast).

        The round up for proposal is examined again only when this copy
        makes ``fresh`` non-empty or arrives once that round is due
        ("When a round is examined").
        """
        fresh = self.fresh
        wake = not fresh
        if mid in self._unheard:
            self._unheard.remove(mid)  # A-Delivered already
        else:
            self._heard.add(mid)
            if mid not in self._in_flight:
                fresh.add(mid)
        if self._observe is not None:
            self._observe(self.process.sim.now)
        due = self._propose_due
        if (wake and fresh) or (due is not None
                                and self.process.sim.now >= due):
            self._maybe_propose()

    def _on_bundle(self, netmsg: Message) -> None:
        """Paper lines 8-10."""
        payload = netmsg.payload
        x = payload["k"]
        if x >= self.k:
            self.msgs.setdefault(x, {}).setdefault(
                self.topology.group_of(netmsg.src), payload["set"])
        if x > self.barrier:
            self.barrier = x
        self._try_complete_round()

    # ------------------------------------------------------------------
    # Task 4: rounds
    # ------------------------------------------------------------------
    def _maybe_propose(self) -> None:
        """Paper lines 11-13, and the extra round (module docstring).

        The one propose path: every event that can make a round
        proposable ends here, the timer behind the two waits included.
        """
        self._propose_due = None
        k = self.k
        prop_k = self.prop_k
        decided = self._own_bundle
        while prop_k in decided and prop_k < k + ROUNDS_IN_FLIGHT:
            # Decided before we proposed it (the leader adopts the first
            # forwarded value): nothing of ours to add.
            prop_k += 1
            self.prop_k = prop_k
            self._eligible_since = None
        if prop_k >= k + ROUNDS_IN_FLIGHT:
            return
        extra = prop_k > k
        if extra and prop_k - 1 not in decided:
            return  # its bundle could overlap the one still being decided
        if prop_k > self.barrier and not self.fresh:
            return  # quiescent: nothing pending and no round obligation
        now = self.process.sim.now
        due = now
        if extra and prop_k > self.barrier:
            # Nobody waits on this round yet.  Starting it early pays
            # only if every group does, and then only interleaved with
            # the round before it.
            if not self._all_loaded:
                return
            due = self._last_proposed + self._round_time / ROUNDS_IN_FLIGHT
        if self.propose_delay > 0:
            if self._eligible_since is None:
                self._eligible_since = now
            due = max(due, self._eligible_since + self.propose_delay)
        if due > now:
            self._propose_due = due
            if not self._timer_armed:
                self._timer_armed = True
                self.process.sim.call_at(due, self._on_propose_timer,
                                         self._propose_label)
            return
        if not extra and k > self.barrier:
            self._wakeups += 1
        self._proposed_at[prop_k] = self._last_proposed = now
        self.prop_k = prop_k + 1
        self._eligible_since = None
        self.consensus.propose(prop_k, tuple(sorted(self.fresh)))

    def _on_propose_timer(self) -> None:
        self._timer_armed = False
        if not self.process.crashed:
            self._maybe_propose()

    def _on_decided(self, instance: int, bundle: tuple) -> None:
        """Paper lines 14-17: publish our group's bundle for the round."""
        if self._others:
            self.process.send_many(
                self._others, self._k_bundle, {"k": instance, "set": bundle})
        self._own_bundle[instance] = bundle
        self.fresh.difference_update(bundle)
        self._in_flight.update(bundle)
        if instance >= self.prop_k:
            # Learned before proposing: it takes our proposal's place.
            self._proposed_at[instance] = self._last_proposed = \
                self.process.sim.now
        self._try_complete_round()

    def _try_complete_round(self) -> None:
        """Paper lines 16-23, re-evaluated on every relevant event.

        Never re-entered: decisions and bundles arrive as kernel events,
        and nothing an A-Deliver handler can call (``a_bcast``,
        ``start_rounds``) completes a round.
        """
        while self._complete_head():
            pass
        self._maybe_propose()

    def _complete_head(self) -> bool:
        """Complete round K if every group's bundle for it is here."""
        round_k = self.k
        own = self._own_bundle.get(round_k)
        if own is None:
            return False  # our group has not decided this round yet
        bundles = self.msgs.get(round_k)
        if self._other_groups and (bundles is None
                                   or len(bundles) < self._other_groups):
            return False  # line 16: still waiting on some group's bundle
        # Line 18: union of all bundles, taken in group-id order (msgs
        # holds no bundle of our own group).  They are disjoint and
        # nothing in them is delivered already: a message rides exactly
        # one decided bundle, of its caster's group ("Delivery
        # history"), so the batch concatenates and sorts them, built
        # once for a run of equal parts ("One batch per round").
        parts = (own,) if bundles is None else tuple(
            bundles.get(gid, own) for gid in self._group_ids)
        useful = any(parts)
        handler = self._handler
        if useful and handler is None:
            raise RuntimeError("no A-Deliver handler installed")
        # Lines 21-23: advance the round; keep going only if useful.
        # The predictor decides whether to commit to the next round (the
        # paper's rule is the default PaperPredictor: continue iff this
        # round was useful).
        self.msgs.pop(round_k, None)
        del self._own_bundle[round_k]
        self._in_flight.difference_update(own)
        heard = self._heard
        self._unheard.update(set(own).difference(heard))
        heard.difference_update(own)
        now = self.process.sim.now
        self._round_time = now - self._proposed_at.pop(round_k)
        self._rounds_executed += 1
        self.k = round_k + 1
        self._all_loaded = bundles is not None and all(parts)
        if useful:
            self._useful_rounds += 1
            self._last_useful = round_k
        if self.predictor.should_continue(delivered=useful, now=now) \
                and self.k > self.barrier:
            self.barrier = self.k
        # Line 19: deterministic delivery order (sorted by id), the
        # whole round in one handler call.  State is already that of
        # round K+1, so a handler sees a consistent endpoint.
        if useful:
            handler(self.catalog.batch(parts))
        return True

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def blocked_on(self) -> Optional[RoundWait]:
        """What the head round waits on; None if no round is in flight.

        Diagnostics only: a plain scan from the definition of line 16.
        """
        k = self.k
        if self.prop_k == k and k not in self._own_bundle \
                and k not in self.msgs:
            return None
        here = self.msgs.get(k, ())
        return RoundWait(
            k, k in self._own_bundle,
            tuple(gid for gid in self.topology.group_ids
                  if gid != self.my_gid and gid not in here))

    def inv(self) -> None:
        """Assert the invariants overlapping rounds must not break.

        Holds at every kernel-event boundary.  The last clause assumes a
        predictor that continues after a useful round (all of
        :mod:`repro.core.prediction` do).
        """
        k = self.k
        assert k <= self.prop_k <= k + ROUNDS_IN_FLIGHT, (k, self.prop_k)
        in_flight: Set[str] = set()
        for x, bundle in self._own_bundle.items():
            assert in_flight.isdisjoint(bundle), \
                f"round {x} re-proposes a mid of another in-flight bundle"
            in_flight.update(bundle)
        assert in_flight == self._in_flight
        assert self.fresh.isdisjoint(in_flight)
        assert self.fresh <= self._heard
        assert self._heard.isdisjoint(self._unheard)
        assert self.fresh.isdisjoint(self._unheard)
        assert in_flight.isdisjoint(self._unheard)
        assert all(x >= k for x in self._own_bundle), (k, self._own_bundle)
        assert all(x >= k for x in self.msgs), (k, sorted(self.msgs))
        assert self.barrier >= self._last_useful, \
            (self.barrier, self._last_useful)
