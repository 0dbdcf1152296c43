"""repro — Optimal atomic broadcast and multicast for wide area networks.

A from-scratch reproduction of:

    Nicolas Schiper and Fernando Pedone,
    "Optimal Atomic Broadcast and Multicast Algorithms for Wide Area
    Networks", PODC 2007 (TR 2007/004, University of Lugano).

The package provides:

* ``repro.core`` — the paper's Algorithm A1 (genuine atomic multicast,
  latency degree 2, optimal) and Algorithm A2 (atomic broadcast, latency
  degree 1, quiescent);
* ``repro.baselines`` — the protocols of the paper's Figure 1
  comparison, implemented from their original descriptions;
* ``repro.sim`` / ``repro.net`` / ``repro.consensus`` /
  ``repro.rmcast`` / ``repro.failure`` — the deterministic wide-area
  substrate everything runs on;
* ``repro.clocks`` — the modified Lamport clocks that measure latency
  degrees (paper Section 2.3);
* ``repro.checkers`` — executable versions of the paper's correctness
  properties (integrity, validity, agreement, prefix order,
  genuineness, quiescence);
* ``repro.runtime`` — one-call system construction, delivery logs and
  run reports;
* ``repro.paper`` — the paper's claims (theorems, propositions,
  Figure 1 and the rest), each one measured number next to its bound
  (``python -m repro.cli paper``).

Quickstart::

    from repro.runtime.builder import SystemSpec, build_system

    system = build_system(SystemSpec(protocol="a1", group_sizes=(3, 3, 3)),
                          seed=1)
    msg = system.cast(sender=0, dest_groups=(0, 1))
    system.run_quiescent()
    print(system.meter.latency_degree(msg.mid))   # -> 2 (optimal)
"""

__version__ = "1.0.0"

from repro.core.interfaces import AppMessage

__all__ = ["AppMessage", "__version__"]
