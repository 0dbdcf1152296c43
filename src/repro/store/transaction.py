"""One-shot transactions and their deterministic execution semantics.

A :class:`Transaction` declares everything up front — the full list of
operations and, through them, its read and write sets — so it can be
routed with :meth:`PartitionMap.groups_of` and executed at every
destination replica *without further coordination*.  This is the
one-shot model of deterministic databases (Calvin, and Pod in
PAPERS.md): atomic multicast fixes the position of the transaction in
the global order, and a deterministic executor turns that position into
identical effects at every replica.

Determinism constraints baked into the model:

* every operation reads and writes a **single key**, so a replica that
  owns only some of the keys can execute its share without seeing the
  other partitions' state;
* conditional operations (``cas``) condition only on their own key, for
  the same reason;
* operations execute in declared order, so two operations on the same
  key inside one transaction compose deterministically.

:func:`execute` is the *one* executor — replicas run it restricted to
their partition, the serializability checker runs it unrestricted over
a single-copy state, and comparing the two is exactly the one-copy
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.interfaces import SLOTTED

#: Operation kinds understood by :func:`execute`.
OP_KINDS = ("get", "put", "incr", "cas")

#: The one empty map every :class:`TxnEffects` starts from.  It is
#: never written: :func:`execute` replaces it with a fresh dict at the
#: first read or cas outcome it records.
NO_ENTRIES: Dict[int, object] = {}


@dataclass(frozen=True, **SLOTTED)
class Transaction:
    """One one-shot transaction: id, issuing client, declared ops.

    ``ops`` entries are plain tuples so the transaction serialises
    losslessly through message payloads:

    * ``("get", key)`` — read ``key``;
    * ``("put", key, value)`` — write ``value``;
    * ``("incr", key, delta)`` — add ``delta`` to the integer at
      ``key`` (missing counts as 0);
    * ``("cas", key, expected, value)`` — write ``value`` iff the
      current value equals ``expected`` (missing reads as None).
    """

    txn_id: str
    client: int
    ops: Tuple[Tuple, ...]
    #: Optional per-key route tags: ``((key, gid), ...)`` recording the
    #: group the issuing client addressed each key's ops to.  Static
    #: deployments leave this None (the owner is unambiguous); elastic
    #: deployments (:mod:`repro.reconfig`) stamp it so a replica can
    #: fence a transaction routed under a stale epoch — "this op was
    #: meant for me, but the key has moved" is only decidable when the
    #: intent is on the wire.
    routes: Optional[Tuple[Tuple[str, int], ...]] = None

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError(
                f"transaction {self.txn_id!r} needs at least one operation"
            )
        arity = {"get": 2, "put": 3, "incr": 3, "cas": 4}
        for op in self.ops:
            if not op or op[0] not in OP_KINDS:
                raise ValueError(
                    f"transaction {self.txn_id!r}: unknown op kind in "
                    f"{op!r}; have {list(OP_KINDS)}"
                )
            if len(op) != arity[op[0]]:
                raise ValueError(
                    f"transaction {self.txn_id!r}: malformed {op[0]!r} op "
                    f"{op!r} (expected {arity[op[0]]} fields)"
                )
        if self.routes is not None:
            routed = {key for key, _ in self.routes}
            touched = set(self.keys())
            if routed != touched:
                raise ValueError(
                    f"transaction {self.txn_id!r}: routes cover {sorted(routed)} "
                    f"but ops touch {sorted(touched)}"
                )

    def route_of(self, key: str) -> Optional[int]:
        """The group this key's ops were addressed to (None = untagged)."""
        if self.routes is None:
            return None
        for k, gid in self.routes:
            if k == key:
                return gid
        return None

    # ------------------------------------------------------------------
    # Declared sets (the routing inputs)
    # ------------------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        """Every key the transaction touches, first-use order, deduped."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            seen.setdefault(op[1])
        return tuple(seen)

    def read_set(self) -> Tuple[str, ...]:
        """Keys read (``get`` targets plus ``incr``/``cas`` inputs)."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op[0] in ("get", "incr", "cas"):
                seen.setdefault(op[1])
        return tuple(seen)

    def write_set(self) -> Tuple[str, ...]:
        """Keys potentially written (``put``/``incr``/``cas`` targets)."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op[0] in ("put", "incr", "cas"):
                seen.setdefault(op[1])
        return tuple(seen)

    @property
    def is_read_only(self) -> bool:
        return not self.write_set()

    # ------------------------------------------------------------------
    # Wire format (AppMessage payloads must be plain hashable data)
    # ------------------------------------------------------------------
    def to_payload(self) -> tuple:
        """Untagged transactions keep the legacy 3-tuple byte-for-byte;
        route-tagged ones append the tags as a 4th element."""
        if self.routes is None:
            return (self.txn_id, self.client, self.ops)
        return (self.txn_id, self.client, self.ops, self.routes)

    @classmethod
    def from_payload(cls, payload: tuple) -> "Transaction":
        if len(payload) == 3:
            txn_id, client, ops = payload
            routes = None
        else:
            txn_id, client, ops, routes = payload
            routes = tuple((k, gid) for k, gid in routes)
        return cls(txn_id=txn_id, client=client,
                   ops=tuple(tuple(op) for op in ops), routes=routes)


@dataclass(**SLOTTED)
class TxnEffects:
    """What executing one transaction observed and decided.

    ``reads`` maps op index → value observed by a ``get``;
    ``cas_applied`` maps op index → whether the ``cas`` took effect.
    Only ops whose key passed the ``owned`` filter appear, so a
    replica's effects are exactly the global effects projected onto its
    partition — the identity the serializability checker verifies.
    A map with no entry is the shared :data:`NO_ENTRIES`.

    Effects are never changed in place once :func:`execute` returns:
    replicas of one group that observed the same thing hold one
    effects object (:meth:`TransactionalStore._shared
    <repro.store.service.TransactionalStore._shared>`).
    """

    txn_id: str
    reads: Dict[int, object]
    cas_applied: Dict[int, bool]


def execute(
    txn: Transaction,
    state: Dict[str, object],
    owned: Optional[Callable[[str], bool]] = None,
) -> TxnEffects:
    """Execute ``txn`` over ``state``, mutating it in place.

    ``owned`` filters which keys this executor is responsible for
    (None = all).  Ops on keys outside the filter are skipped entirely;
    because every op touches a single key, the skipped ops cannot
    influence the executed ones, which is what makes the partitioned
    execution equal the global execution projected per partition.
    """
    reads = cas_applied = NO_ENTRIES
    for index, op in enumerate(txn.ops):
        kind, key = op[0], op[1]
        if owned is not None and not owned(key):
            continue
        if kind == "get":
            if reads is NO_ENTRIES:
                reads = {}
            reads[index] = state.get(key)
        elif kind == "put":
            state[key] = op[2]
        elif kind == "incr":
            current = state.get(key, 0)
            if not isinstance(current, int):
                # Deterministic type coercion: a non-integer value
                # resets the counter, identically at every replica.
                current = 0
            state[key] = current + op[2]
        elif kind == "cas":
            applied = state.get(key) == op[2]
            if applied:
                state[key] = op[3]
            if cas_applied is NO_ENTRIES:
                cas_applied = {}
            cas_applied[index] = applied
    return TxnEffects(txn.txn_id, reads, cas_applied)
