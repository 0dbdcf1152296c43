"""Elastic repartitioning: the partition map as a replicated object.

This package makes key ownership *dynamic* while keeping every safety
argument inside the atomic multicast's total order:

* :mod:`repro.reconfig.ring` — consistent-hash ring ownership with
  virtual nodes per group, replacing the bare ``sha256 % n_groups``
  fallback for elastic deployments (explicit overrides preserved);
* :mod:`repro.reconfig.txn` — the reconfig/handoff *control payloads*
  that ride the same atomic multicast as data transactions;
* :mod:`repro.reconfig.balancer` — the :class:`LoadBalancer` that
  watches decayed per-key demand heat and triggers key-range migrations;
* :mod:`repro.reconfig.checker` — the post-hoc ``reconfig`` checker
  (unique ownership per epoch, no stale execution, migrated state
  equals the source snapshot);
* :mod:`repro.reconfig.metrics` — the ``reconfig`` campaign metric
  family (migrations, bounces, residues, stall time).

The migration protocol itself lives in the serving layer
(:mod:`repro.store.service`), because fencing and snapshot transfer
are replica-side concerns; this package holds everything that is *not*
a replica: the ownership function, the wire format, the controller and
the verdicts.
"""

from repro.reconfig.ring import HashRing
from repro.reconfig.txn import (
    Handoff,
    ReconfigOp,
    is_control,
    parse_control,
)

__all__ = [
    "HashRing",
    "Handoff",
    "ReconfigOp",
    "is_control",
    "parse_control",
]
