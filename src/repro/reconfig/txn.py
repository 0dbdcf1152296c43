"""Control payloads: reconfiguration rides the atomic multicast.

Ownership changes are not out-of-band mutations — they are messages in
the same total order as data transactions, multicast genuinely to the
groups whose ownership they touch:

* :class:`ReconfigOp` (**R**) — "move ``keys`` from group ``src`` to
  group ``dst``" — multicast to ``{src, dst}``.  On A-Deliver the
  source sheds the keys (snapshot + delete + fence) and the target
  tentatively takes ownership, stalling execution of transactions that
  touch the moving keys until the state arrives.
* :class:`Handoff` (**H**) — the key-range snapshot, cast by the
  designated (lowest-pid correct) source replica *after* it executes
  R, multicast to ``{src, dst}`` so the source learns completion and
  the target installs the state at a totally-ordered point.  An
  aborted reconfig (source refused R) ships an empty ``aborted``
  handoff so the target can roll its tentative flip back.

Data transactions keep their 3-tuple ``(txn_id, client, ops)`` payload
untouched; control payloads are tagged tuples so every consumer —
stores, trackers, checkers, metric extractors — can tell the two
apart with :func:`is_control` without attempting a parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Payload tags.  Data transactions are untagged 3-tuples.
RECONFIG_TAG = "__reconfig__"
HANDOFF_TAG = "__handoff__"


def move_seq(reconfig_id: str) -> int:
    """The balancer's sequence number of a move id ``rc%05d``.  Moves are
    ordered by it, never by the text: ``"rc100000" < "rc99999"``."""
    return int(reconfig_id[2:])


def is_control(payload) -> bool:
    """Is this multicast payload a reconfig/handoff control message?"""
    return (isinstance(payload, tuple) and len(payload) > 0
            and payload[0] in (RECONFIG_TAG, HANDOFF_TAG))


@dataclass(frozen=True)
class ReconfigOp:
    """R: move ``keys`` from group ``src`` to group ``dst``."""

    reconfig_id: str
    src: int
    dst: int
    keys: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(
                f"reconfig {self.reconfig_id!r} moves keys from group "
                f"{self.src} to itself"
            )
        if not self.keys:
            raise ValueError(
                f"reconfig {self.reconfig_id!r} moves no keys"
            )

    @property
    def dest_groups(self) -> Tuple[int, ...]:
        return tuple(sorted((self.src, self.dst)))

    def to_payload(self) -> tuple:
        return (RECONFIG_TAG, self.reconfig_id, self.src, self.dst,
                self.keys)

    @classmethod
    def from_payload(cls, payload: tuple) -> "ReconfigOp":
        tag, reconfig_id, src, dst, keys = payload
        if tag != RECONFIG_TAG:
            raise ValueError(f"not a reconfig payload: {payload!r}")
        return cls(reconfig_id=reconfig_id, src=src, dst=dst,
                   keys=tuple(keys))


@dataclass(frozen=True)
class Handoff:
    """H: the snapshot of the moving key range (or an abort notice)."""

    reconfig_id: str
    src: int
    dst: int
    keys: Tuple[str, ...]
    #: ``((key, value), ...)`` sorted by key; empty when aborted.
    snapshot: Tuple[Tuple[str, object], ...] = ()
    aborted: bool = False

    @property
    def dest_groups(self) -> Tuple[int, ...]:
        return tuple(sorted((self.src, self.dst)))

    def snapshot_dict(self) -> Dict[str, object]:
        return dict(self.snapshot)

    def to_payload(self) -> tuple:
        return (HANDOFF_TAG, self.reconfig_id, self.src, self.dst,
                self.keys, self.snapshot, self.aborted)

    @classmethod
    def from_payload(cls, payload: tuple) -> "Handoff":
        tag, reconfig_id, src, dst, keys, snapshot, aborted = payload
        if tag != HANDOFF_TAG:
            raise ValueError(f"not a handoff payload: {payload!r}")
        return cls(reconfig_id=reconfig_id, src=src, dst=dst,
                   keys=tuple(keys),
                   snapshot=tuple((k, v) for k, v in snapshot),
                   aborted=bool(aborted))


def parse_control(payload: tuple):
    """Parse a tagged control payload into its dataclass."""
    if payload[0] == RECONFIG_TAG:
        return ReconfigOp.from_payload(payload)
    if payload[0] == HANDOFF_TAG:
        return Handoff.from_payload(payload)
    raise ValueError(f"not a control payload: {payload!r}")
