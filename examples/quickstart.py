#!/usr/bin/env python3
"""Quickstart: atomic multicast and broadcast in a simulated WAN.

Builds a three-group wide-area system, multicasts a few messages with
Algorithm A1, broadcasts with Algorithm A2, and prints what the paper's
metrics look like on real runs:

* latency degree (inter-group hops on the delivery path),
* per-process delivery orders (identical where they must be),
* inter- vs intra-group message counts.

Run:  python examples/quickstart.py
"""

from repro.checkers.properties import check_all
from repro.runtime.builder import SystemSpec, build_system


def multicast_demo() -> None:
    """Algorithm A1: genuine atomic multicast, optimal degree 2."""
    print("=" * 64)
    print("Algorithm A1 — genuine atomic multicast")
    print("=" * 64)

    # Three groups of three processes: pids 0-2, 3-5, 6-8.
    system = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                          seed=42)

    local = system.cast(sender=0, dest_groups=(0,), payload="local-op")
    pair = system.cast(sender=0, dest_groups=(0, 1), payload="pair-op")
    wide = system.cast(sender=3, dest_groups=(0, 1, 2), payload="wide-op")
    system.run_quiescent()

    for msg, label in [(local, "1 group (local)"),
                       (pair, "2 groups"),
                       (wide, "3 groups")]:
        degree = system.meter.latency_degree(msg.mid)
        print(f"  {label:18s} -> latency degree {degree}")

    print("\n  Delivery order per process (projected orders agree):")
    for pid in (0, 3, 6):
        print(f"    p{pid} (group {system.topology.group_of(pid)}): "
              f"{system.log.sequence(pid)}")

    check_all(system.log, system.topology)
    print("\n  All four atomic multicast properties verified. ✓")
    print(f"  Traffic: {system.inter_group_messages} inter-group / "
          f"{system.intra_group_messages} intra-group messages\n")


def broadcast_demo() -> None:
    """Algorithm A2: atomic broadcast at latency degree 1."""
    print("=" * 64)
    print("Algorithm A2 — atomic broadcast (proactive rounds)")
    print("=" * 64)

    system = build_system(
        SystemSpec(protocol="a2", group_sizes=[3, 3],
                   protocol_kwargs=(("propose_delay", 0.05),)),
        seed=42)
    system.start_rounds()

    warm = system.cast_at(0.01, 0, payload="warm")    # rides round 1
    cold = system.cast_at(100.0, 3, payload="cold")   # after quiescence
    system.run_quiescent()

    print(f"  warm broadcast (rounds active)   -> degree "
          f"{system.meter.latency_degree(warm.mid)}  (Theorem 5.1)")
    print(f"  cold broadcast (after quiescence)-> degree "
          f"{system.meter.latency_degree(cold.mid)}  (Theorem 5.2)")

    check_all(system.log, system.topology)
    print("\n  Properties verified; the event queue drained, so the")
    print("  algorithm is quiescent (Proposition A.9). ✓\n")


def main() -> None:
    multicast_demo()
    broadcast_demo()
    print("The genuine multicast floor is 2 (Prop 3.1); broadcast can "
          "reach 1\nbecause it is allowed to be proactive — the paper's "
          "central tradeoff.")


if __name__ == "__main__":
    main()
