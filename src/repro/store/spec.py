"""Declarative store scenario knobs.

:class:`StoreSpec` plays the role :class:`~repro.campaigns.spec.
WorkloadSpec` plays for plain cast workloads: a frozen, picklable,
JSON-round-trippable bundle of every knob a transactional-store
scenario needs — keyspace size and placement, routing discipline,
client arrival process, and the YCSB-style mix (zipf key popularity,
read fraction, multi-partition ratio).  ``ScenarioSpec.store`` carries
one; the campaign runner sees it and builds a
:class:`~repro.store.cluster.StoreCluster` instead of scheduling plain
casts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.store.service import ROUTINGS

#: Arrival processes for client transactions.
ARRIVALS = ("poisson", "periodic")

#: Key placement disciplines: pin every key round-robin (legacy), or
#: let the consistent-hash ring over the data groups own the keys.
PLACEMENTS = ("explicit", "ring")

#: Key-popularity scopes.  "partition" applies the zipf law within each
#: partition and picks partitions uniformly — per-group load stays flat
#: by construction (the legacy YCSB-style mix).  "global" applies one
#: zipf law over the whole keyspace and picks partitions weighted by
#: the popularity mass of the keys they own — the partitions holding
#: globally-hot keys become hot, the skew elastic repartitioning
#: exists to relieve.
POPULARITIES = ("partition", "global")


@dataclass(frozen=True)
class StoreSpec:
    """Everything a transactional-store scenario needs, as plain data.

    Keyspace: ``n_keys`` keys named ``k00000...``, assigned round-robin
    to ``data_groups`` (None = every group).  Groups outside
    ``data_groups`` replicate nothing — the measurement instrument for
    the genuineness claim: under genuine routing they must stay
    completely idle, under broadcast routing they are dragged into
    every transaction.

    Mix: each transaction touches 1 partition, or (with probability
    ``multi_partition_fraction``) 2..``max_partitions`` distinct ones,
    drawing one zipf-popular key per partition plus extra keys up to
    ``ops_per_txn``; each op is a read with probability
    ``read_fraction``, else a put/incr/cas write.
    """

    n_keys: int = 64
    data_groups: Optional[Tuple[int, ...]] = None
    routing: str = "genuine"
    clients_per_group: int = 1
    # Arrival process of client transactions.
    kind: str = "poisson"
    rate: float = 1.0
    duration: float = 50.0
    period: float = 1.0
    count: int = 50
    start: float = 0.0
    # YCSB-style mix.
    read_fraction: float = 0.5
    multi_partition_fraction: float = 0.25
    max_partitions: int = 2
    ops_per_txn: int = 2
    zipf_skew: float = 1.0
    #: Scope of the zipf law: "partition" (legacy, flat per-group load)
    #: or "global" (hot keys make their owner groups hot).
    popularity: str = "partition"
    # Elastic repartitioning (repro.reconfig).  The defaults keep every
    # existing scenario byte-identical: explicit placement, no service
    # queue, no balancer.
    placement: str = "explicit"
    ring_vnodes: int = 64
    #: Per-replica serial execution cost per transaction (0 = execute
    #: at delivery, the legacy behaviour).  Positive values make hot
    #: partitions queue — the effect rebalancing exists to relieve.
    service_time: float = 0.0
    #: Load-balancer tick period (0 = no balancer).
    rebalance_interval: float = 0.0
    rebalance_threshold: float = 2.0
    rebalance_keys: int = 8
    #: Modeled latency of a WrongEpoch bounce notice back to a client.
    notice_delay: float = 1.0
    #: Retry budget per fenced transaction before the client gives up.
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.n_keys < 1:
            raise ValueError(
                f"StoreSpec needs a positive n_keys, got {self.n_keys!r}"
            )
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"unknown routing {self.routing!r}; have {list(ROUTINGS)}"
            )
        if self.kind not in ARRIVALS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; have {list(ARRIVALS)}"
            )
        if self.clients_per_group < 1:
            raise ValueError(
                f"StoreSpec needs a positive clients_per_group, "
                f"got {self.clients_per_group!r}"
            )
        for name in ("read_fraction", "multi_partition_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"StoreSpec {name} must be within [0, 1], got {value!r}"
                )
        if self.max_partitions < 2:
            raise ValueError(
                f"StoreSpec max_partitions must be >= 2, "
                f"got {self.max_partitions!r}"
            )
        if self.ops_per_txn < 1:
            raise ValueError(
                f"StoreSpec needs a positive ops_per_txn, "
                f"got {self.ops_per_txn!r}"
            )
        if self.zipf_skew < 0:
            raise ValueError(
                f"StoreSpec needs a non-negative zipf_skew, "
                f"got {self.zipf_skew!r}"
            )
        if self.kind == "poisson":
            # A zero-length window plans no transaction, and an empty
            # run passes every checker vacuously.
            for name in ("rate", "duration"):
                value = getattr(self, name)
                if value <= 0:
                    raise ValueError(
                        f"StoreSpec poisson arrivals need a positive "
                        f"{name}, got {value!r}"
                    )
        if self.kind == "periodic":
            if self.period <= 0:
                raise ValueError(
                    f"StoreSpec periodic arrivals need a positive period, "
                    f"got {self.period!r}"
                )
            if self.count < 0:
                raise ValueError(
                    f"StoreSpec periodic arrivals need a non-negative "
                    f"count, got {self.count!r}"
                )
        if self.popularity not in POPULARITIES:
            raise ValueError(
                f"unknown popularity {self.popularity!r}; "
                f"have {list(POPULARITIES)}"
            )
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"have {list(PLACEMENTS)}"
            )
        if self.ring_vnodes < 1:
            raise ValueError(
                f"StoreSpec needs a positive ring_vnodes, "
                f"got {self.ring_vnodes!r}"
            )
        if self.service_time < 0:
            raise ValueError(
                f"StoreSpec needs a non-negative service_time, "
                f"got {self.service_time!r}"
            )
        if self.rebalance_interval < 0:
            raise ValueError(
                f"StoreSpec needs a non-negative rebalance_interval, "
                f"got {self.rebalance_interval!r}"
            )
        if self.rebalance_interval > 0 and self.routing != "genuine":
            raise ValueError(
                "rebalancing needs routing='genuine': reconfig "
                "transactions are multicast to exactly {src, dst}"
            )
        if self.rebalance_threshold < 1.0:
            raise ValueError(
                f"StoreSpec rebalance_threshold must be >= 1.0, "
                f"got {self.rebalance_threshold!r}"
            )
        if self.rebalance_keys < 1:
            raise ValueError(
                f"StoreSpec needs a positive rebalance_keys, "
                f"got {self.rebalance_keys!r}"
            )
        if self.notice_delay < 0:
            raise ValueError(
                f"StoreSpec needs a non-negative notice_delay, "
                f"got {self.notice_delay!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"StoreSpec needs a non-negative max_retries, "
                f"got {self.max_retries!r}"
            )

    @property
    def horizon(self) -> float:
        """Virtual time by which every transaction has been issued."""
        if self.kind == "poisson":
            return self.start + self.duration
        return self.start + self.period * max(self.count - 1, 0)

    @classmethod
    def from_dict(cls, data: dict) -> "StoreSpec":
        """Rebuild from JSON-safe plain data (tuples revived)."""
        data = dict(data)
        if data.get("data_groups") is not None:
            data["data_groups"] = tuple(data["data_groups"])
        return cls(**data)
