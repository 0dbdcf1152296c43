#!/usr/bin/env python3
"""Fault tolerance demo: crashes mid-protocol, delivery continues.

Three failure scenarios against Algorithm A1 over a WAN, each checked
against the paper's uniform properties:

1. the *caster* crashes right after multicasting (its message still
   reaches every correct addressee — uniform agreement);
2. a group's consensus *leader* crashes mid-instance (Paxos elects the
   next member; the group's timestamp proposals keep flowing);
3. a steady workload rides through both crashes without violating
   integrity, agreement, validity, or prefix order.

Run:  python examples/failover.py
"""

from repro.checkers.properties import check_all
from repro.failure.schedule import CrashSchedule
from repro.net.topology import LatencyModel
from repro.runtime.builder import SystemSpec, build_system
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


def main() -> None:
    # pids 0-2 = group 0, pids 3-5 = group 1, pids 6-8 = group 2.
    crashes = CrashSchedule({
        4: 30.0,    # scenario 1: caster dies 30 ms after its multicast
        0: 250.0,   # scenario 2: group 0's consensus leader dies later
    })
    system = build_system(
        SystemSpec(protocol="a1", group_sizes=[3, 3, 3],
                   latency=LatencyModel.wan(intra_ms=1.0, inter_ms=100.0),
                   detector_delay=20.0),
        seed=5, crashes=crashes)

    # Scenario 1: pid 4 multicasts at t=25 and crashes at t=30 — before
    # the remote group even received the message copies.
    doomed = system.cast_at(25.0, 4, (1, 2), payload="from-doomed-caster")

    # Scenario 3: background traffic across all groups, spanning the
    # leader crash at t=250.
    plan = poisson_workload(
        system.topology, system.rng.stream("wl"), rate=0.01,
        duration=600.0, destinations=uniform_k_groups(2),
    )
    messages = schedule_workload(system, plan)

    system.run_quiescent()

    print("Crash schedule:")
    for pid, when in sorted(crashes.crashes.items()):
        role = "consensus leader of group 0" if pid == 0 else "caster"
        print(f"  p{pid} ({role}) crashed at t={when:.0f} ms")

    survivors = crashes.correct_processes(system.topology)
    delivered_doomed = [p for p in survivors
                        if doomed.mid in system.log.sequence(p)
                        and system.topology.group_of(p) in (1, 2)]
    print(f"\nScenario 1 — the doomed caster's message reached "
          f"{len(delivered_doomed)} of 5 correct addressees "
          f"(uniform agreement held): {delivered_doomed}")

    after_crash = [m for m in messages
                   if system.meter.record_for(m.mid).cast_time
                   and system.meter.record_for(m.mid).cast_time > 250.0]
    print(f"Scenario 2 — {len(after_crash)} messages cast after the "
          f"leader crash; all were delivered by the re-elected leader's "
          f"group.")

    check_all(system.log, system.topology, crashes)
    print(f"\nScenario 3 — {len(messages)} background messages, "
          f"{system.log.delivery_count()} deliveries, all four uniform "
          f"properties verified. ✓")

    degrees = [d for d in system.degrees().values() if d is not None]
    print(f"Latency degrees stayed in [{min(degrees)}, {max(degrees)}] — "
          f"crashes cost retries and detector lag (wall time), but the "
          f"causal hop structure is unchanged.")


if __name__ == "__main__":
    main()
