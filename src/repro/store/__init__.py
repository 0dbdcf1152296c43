"""Transactional partitioned store over genuine atomic multicast.

The serving layer the paper's introduction motivates: each group
replicates one partition of the keyspace, and a one-shot transaction —
a declared list of deterministic operations (put/get/incr/cas) over a
declared key set — is atomically multicast to exactly the groups that
own the keys it touches.  On A-Deliver every replica executes the
transaction deterministically over its own partition; the uniform
prefix order property then makes the per-partition execution logs embed
into one global serial order, which the one-copy-serializability
checker verifies by construction *and* by replay.

Layout:

* :mod:`~repro.store.transaction` — the one-shot transaction model and
  its deterministic execution semantics;
* :mod:`~repro.store.partition` — :class:`PartitionMap`, the
  versioned key → owner-group assignment;
* :mod:`~repro.store.service` — :class:`TransactionalStore`, one
  process's replica of its group's partition;
* :mod:`~repro.store.client` — :class:`StoreClient` sessions and the
  commit-latency tracker (simulated time);
* :mod:`~repro.store.workload` — seeded YCSB-style transaction
  workloads (zipf key popularity, read/write mix, multi-partition
  ratio);
* :mod:`~repro.store.cluster` — :class:`StoreCluster`, one-call
  deployment over any protocol of the registry;
* :mod:`~repro.store.checker` — the post-hoc one-copy-serializability
  checker;
* :mod:`~repro.store.spec` — :class:`StoreSpec`, the declarative knob
  set campaigns and the CLI share;
* :mod:`~repro.store.metrics` — store/involvement metric extractors.
"""

from repro.store.checker import (
    SerializabilityChecker,
    SerializabilityViolation,
    check_serializability,
)
from repro.store.client import CommitTracker, StoreClient
from repro.store.cluster import StoreCluster
from repro.store.service import TransactionalStore
from repro.store.spec import StoreSpec
from repro.store.transaction import Transaction, execute
from repro.store.workload import TxnPlan, partition_keys, txn_workload

__all__ = [
    "CommitTracker",
    "SerializabilityChecker",
    "SerializabilityViolation",
    "StoreClient",
    "StoreCluster",
    "StoreSpec",
    "Transaction",
    "TransactionalStore",
    "TxnPlan",
    "check_serializability",
    "execute",
    "partition_keys",
    "txn_workload",
]
