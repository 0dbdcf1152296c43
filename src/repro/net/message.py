"""Network message envelope and the interned application-message catalog.

A :class:`Message` is what the network hands to a destination process.
``kind`` routes the message to the protocol layer that registered for it;
``payload`` is an arbitrary dict owned by that protocol.

``send_lamport`` carries the modified Lamport timestamp of the send event
(paper Section 2.3), stamped by the network at send time.  The receiver's
clock is advanced to ``max(LC, send_lamport)`` before the handler runs.

**Envelope contract.**  The ``msg`` a handler receives is valid for the
duration of that call.  A one-to-many send is one logical step (Section
2.3), and where nothing mounted needs to tell its copies apart the
network carries it as one envelope per *leg* (the receivers at one link
delay, see :meth:`Network.send_many`): the same object is handed to each
receiver in turn with ``dst`` stamped just before the call, so a handler
that keeps ``msg`` past its return may later read another receiver's
``dst``.  Keep the fields, not the envelope.  The per-copy seams —
reliable transport, delay hooks, delivery filters, the message trace —
always see a :class:`Message` of their own per copy and may keep it.

:class:`MessageCatalog` is the message plane's interning table, and the
run's one per-message table: each application message is registered
once, at cast time, as a :class:`~repro.clocks.latency.MessageRecord`
that holds the message itself and, later, its cast and delivery stamps,
and every protocol payload from then on carries only its compact
``mid``.  In a real deployment the first copy a node receives would
carry the full body and populate that node's local table; in this
single-address-space simulator one shared table per simulation models
exactly that without re-encoding the body into every consensus value
and timestamp exchange.  Network *copies* (and therefore every
message-complexity counter and the genuineness trace) are unaffected —
only the Python-level payloads shrink.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.clocks.latency import MessageRecord

_MID_TEXT = "m%06d"
_MSG = attrgetter("msg")


class Message:
    """One point-to-point message in flight or delivered.

    Attributes:
        src: Sender process id.
        dst: Destination process id; on a shared envelope, that of
            the handler call in progress (-1 before the first).
        kind: Protocol routing key, e.g. ``"paxos.accept"``.
        payload: Protocol-defined contents.
        inter_group: True when sender and receiver are in distinct groups.
        send_lamport: Modified Lamport timestamp of the send event.
        send_time: Virtual time of the send event.
        wire: Transport frame word ``(seq << 8) | checksum``, or None
            when no reliable transport sequenced this copy.  Lives on
            the envelope, not in ``payload``: the payload dict is shared
            by every copy of a ``send_many`` fan-out, while the sequence
            number is strictly per copy — and the corrupt injector can
            damage one copy's frame word without touching its siblings.
    """

    __slots__ = ("src", "dst", "kind", "payload", "inter_group",
                 "send_lamport", "send_time", "wire")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Dict[str, Any],
        inter_group: bool = False,
        send_lamport: int = 0,
        send_time: float = 0.0,
        wire: "int | None" = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.inter_group = inter_group
        self.send_lamport = send_lamport
        self.send_time = send_time
        self.wire = wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = "inter" if self.inter_group else "intra"
        return (
            f"Message({self.src}->{self.dst} {self.kind} {scope} "
            f"ts={self.send_lamport} t={self.send_time:.3f})"
        )


class MessageCatalog:
    """Per-simulation table of application messages by mid.

    Each entry is the message's :class:`~repro.clocks.latency.MessageRecord`,
    and :attr:`record_map` (mid → record, in cast order) is the run's
    only per-message table: a built system's
    :class:`~repro.runtime.results.DeliveryLog` and
    :class:`~repro.clocks.latency.LatencyMeter` read that very dict.  It
    is the authoritative decode table for the compact mids that
    protocol payloads and consensus values carry.  Every cast interns
    its message, and a mid is cast at most once: it is the protocols'
    total-order tiebreaker, and reliable multicast delivers per cast, so
    a second cast under one mid would be delivered twice.  Interning a
    second message object under a known mid raises.

    It also mints the run's ids (:meth:`mint`): ``m000000``,
    ``m000001``, ... from the start of every simulation, so the same
    seed gives the same ids in a fresh interpreter and in the tenth run
    of one.  An id picked by hand is claimed first (:meth:`name`), and
    the mint passes over it.  Ids compare as text, which is mint order
    below 10⁶ ids per run; past that (``m1000000`` sorts before
    ``m999999``) the order is still one deterministic total order every
    process agrees on, which is all the protocols' tiebreaks need.
    """

    __slots__ = ("_records", "_minted", "_named", "_last_batch")

    def __init__(self) -> None:
        self._records: Dict[str, MessageRecord] = {}
        self._minted = 0
        # Every id claimed by :meth:`name`, cast or still to be cast.
        self._named: Set[str] = set()
        # The last (parts, batch) pair :meth:`batch` built.
        self._last_batch: Optional[Tuple[tuple, tuple]] = None

    @classmethod
    def of(cls, sim) -> "MessageCatalog":
        """The catalog shared by everything attached to ``sim``.

        Lazily creates one catalog per simulator instance unless one was
        attached (:meth:`attach`), so every process, protocol endpoint,
        and the :class:`System` wrapper of one simulation resolve mids
        against the same table while independent simulations stay
        isolated.
        """
        catalog = getattr(sim, "_message_catalog", None)
        if catalog is None:
            catalog = cls().attach(sim)
        return catalog

    def attach(self, sim) -> "MessageCatalog":
        """Make this the catalog :meth:`of` returns for ``sim``.

        Refused once ``sim`` has a catalog, so one simulation never
        splits its messages between two tables.
        """
        if getattr(sim, "_message_catalog", None) is not None:
            raise ValueError("this simulation already has a catalog")
        sim._message_catalog = self
        return self

    def mint(self, n: int) -> List[str]:
        """The run's next ``n`` message ids, in order, passing over the
        ids :meth:`name` claimed."""
        first = self._minted
        self._minted = first + n
        mids = list(map(_MID_TEXT.__mod__, range(first, first + n)))
        named = self._named
        if named and not named.isdisjoint(mids):
            mids = [mid for mid in mids if mid not in named]
            mids += self.mint(n - len(mids))
        return mids

    def name(self, mids: Iterable[str]) -> None:
        """Claim hand-picked ids for casts to come; :meth:`mint` never
        returns a claimed id.

        All or nothing: an id that repeats, is cast already, was
        claimed before or was minted already raises, and then nothing
        is claimed.  A minted id may still wait in a queued plan, so
        every id of the mint's own form below its cursor is refused: one
        test per id, and no set entry per minted id.
        """
        named = self._named
        claimed: Set[str] = set()
        for mid in mids:
            if mid in claimed or mid in named or mid in self._records:
                raise ValueError(f"mid {mid!r} is cast twice: a mid is "
                                 f"cast at most once")
            if self._minted_already(mid):
                raise ValueError(f"mid {mid!r} was minted already: a mid "
                                 f"is cast at most once")
            claimed.add(mid)
        named.update(claimed)

    def _minted_already(self, mid: str) -> bool:
        """Whether :meth:`mint` has reached ``mid``: it has the form
        ``m%06d`` exactly and its index is below the mint's cursor."""
        digits = mid[1:]
        if mid[:1] != "m" or not digits.isdecimal():
            return False
        index = int(digits)
        return index < self._minted and _MID_TEXT % index == mid

    def intern(self, msg) -> MessageRecord:
        """Register the cast of ``msg``; returns its entry.

        Idempotent for the same message object (an endpoint skips the
        call for a message its system interned already); a second cast
        of the mid raises before anything of it is stamped or sent.  An
        entry that a hand-fed log made for a delivery before the cast
        takes the message.
        """
        rec = self._records.get(msg.mid)
        if rec is None:
            rec = self._records[msg.mid] = MessageRecord(msg)
        elif rec.msg is not msg:
            if rec.msg is not None:
                raise ValueError(
                    f"mid {msg.mid!r} is already cast: a mid is cast at "
                    f"most once")
            rec.msg = msg
        return rec

    @property
    def record_map(self) -> Dict[str, MessageRecord]:
        """The live table, mid → record, in cast order.

        Read it in place; entries are made by :meth:`intern` and, for a
        delivered mid that was never cast, by the delivery writers.
        """
        return self._records

    def get(self, mid: str):
        """The message interned under ``mid`` (KeyError if unknown)."""
        return self._records[mid].msg

    def batch(self, parts: tuple) -> tuple:
        """The messages of ``parts``, a tuple of sorted mid tuples, in
        one id order: their concatenation, sorted and resolved.

        A mid in two parts is kept twice.  The last answer is held and
        returned again for equal parts (identity first, then value), so
        the processes that deliver one A2 round in a row build it once.
        """
        last = self._last_batch
        if last is not None and last[0] == parts:
            return last[1]
        batch = tuple(map(_MSG, map(self._records.__getitem__,
                                    sorted(chain(*parts)))))
        self._last_batch = (parts, batch)
        return batch

    def __contains__(self, mid: str) -> bool:
        return mid in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)
