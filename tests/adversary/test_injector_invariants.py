"""Quasi-reliable invariants hold under every built-in injector.

Seeded property-based tests (plain pytest parametrisation, no
hypothesis dependency): for a grid of (adversary, seed) points the
network trace must show that adversarial perturbation stays inside the
paper's link semantics —

* **no corruption** — every delivered copy is the exact object the
  sender put on the wire;
* **no duplication** — no copy is delivered twice;
* **no invention** — nothing is delivered that was never sent;
* **eventual delivery** — after a quiescent run, every copy addressed
  to a never-crashed destination was delivered (copies to crashed
  processes may drop: quasi-reliability permits exactly that).

These are the invariants that make the torture campaign's verdicts
meaningful: an injector that corrupted or dropped correct-to-correct
traffic would "find" protocol violations the model does not allow.

The ``lossy-*`` adversaries break the quasi-reliable axioms *by
design* (drop, duplicate, corrupt), so they are excluded from that
grid.  Their contract is different: mounted **beneath** the
``reliable`` transport, the composition must restore exactly-once
in-order per-link delivery — the second half of this module tests
precisely that, by recording every frame the transport releases
upward and asserting each link saw the unbroken sequence
``0, 1, 2, ...``.
"""

from collections import defaultdict

import pytest

from repro.adversary.injectors import apply_adversary
from repro.adversary.spec import ADVERSARIES, get_adversary
from repro.checkers.properties import check_all
from repro.checkers.stabilization import (
    StreamingStabilizationChecker,
    check_stabilization,
)
from repro.runtime.builder import build_system
from repro.transport import ACK_KIND
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)

#: Adversaries that must preserve the quasi-reliable link axioms.
ADVERSARY_NAMES = [name for name in ADVERSARIES
                   if name != "none" and not name.startswith("lossy-")]
#: Adversaries that break them on purpose (paired with the transport).
LOSSY_NAMES = [name for name in ADVERSARIES if name.startswith("lossy-")]


def _run_traced(adversary_name: str, seed: int):
    system = build_system("a1", group_sizes=[3, 3], seed=seed,
                          trace=True)
    applied = apply_adversary(system, get_adversary(adversary_name))
    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=1.5, duration=25.0, destinations=uniform_k_groups(2),
    )
    schedule_workload(system, plans)
    system.run_quiescent()
    return system, applied


@pytest.mark.parametrize("adversary_name", ADVERSARY_NAMES)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_quasi_reliable_invariants(adversary_name, seed):
    system, applied = _run_traced(adversary_name, seed)
    sends = [e.msg for e in system.network.trace.events
             if e.event == "send"]
    delivers = [e.msg for e in system.network.trace.events
                if e.event == "deliver"]
    sent_ids = {id(msg) for msg in sends}

    delivered_ids = set()
    for msg in delivers:
        # No invention, and no corruption: the delivered object IS the
        # sent object, payload untouched by construction.
        assert id(msg) in sent_ids, \
            f"delivered a copy that was never sent: {msg}"
        # No duplication.
        assert id(msg) not in delivered_ids, \
            f"copy delivered twice: {msg}"
        delivered_ids.add(id(msg))

    # Eventual delivery: every copy whose destination never crashed
    # must have arrived by quiescence.  (Messages *to* a crashed
    # process may be dropped; the phase-crash adversary exercises
    # that, and the run's crash schedule records its dynamic crash.)
    for msg in sends:
        if system.crashes.is_faulty(msg.dst):
            continue
        assert id(msg) in delivered_ids, (
            f"copy to correct process never delivered: {msg} "
            f"(adversary {adversary_name}, seed {seed})"
        )


@pytest.mark.parametrize("adversary_name", ADVERSARY_NAMES)
def test_injectors_actually_inject(adversary_name):
    """The grid is only a test of the adversary if faults really fire."""
    _, applied = _run_traced(adversary_name, seed=1)
    assert applied.total_faults > 0, \
        f"{adversary_name} injected nothing on this workload"


@pytest.mark.parametrize("seed", [1, 5])
def test_fault_window_alignment(seed):
    """Moving the fault window never reshuffles the fault stream.

    With ``skip_faults=k`` the injector must perturb exactly the faults
    it would have perturbed anyway, minus the first k — the alignment
    property the shrinker's bisection depends on.  Observable here as:
    the skipped run's faults are a subset count and the system still
    runs deterministically.
    """
    from repro.adversary.spec import AdversarySpec, InjectorSpec

    def faults_with(skip, max_faults):
        spec = AdversarySpec(
            name="probe",
            injectors=(InjectorSpec(
                kind="delay-reorder",
                params=(("probability", 0.2),),
                skip_faults=skip, max_faults=max_faults,
            ),),
        )
        system = build_system("a1", group_sizes=[2, 2], seed=seed)
        applied = apply_adversary(system, spec)
        plans = poisson_workload(
            system.topology, system.rng.stream("wl"),
            rate=1.0, duration=15.0, destinations=uniform_k_groups(2),
        )
        schedule_workload(system, plans)
        system.run_quiescent()
        injector = applied.injectors[0]
        return injector.opportunities, injector.faults_injected

    opportunities, faults = faults_with(0, None)
    assert faults > 2
    # Skipping everything injects nothing: the run is benign.
    _, benign_faults = faults_with(10 ** 9, None)
    assert benign_faults == 0
    # Capping at 1 injects exactly one.
    _, one = faults_with(0, 1)
    assert one == 1
    # max_faults=0 is the explicit benign window.
    _, none = faults_with(0, 0)
    assert none == 0


# ----------------------------------------------------------------------
# Lossy adversaries beneath the reliable transport
# ----------------------------------------------------------------------

def _run_reliable(adversary_name: str, seed: int):
    """Run a1 over lossy links with the transport mounted.

    Every protocol handler is wrapped so that each frame the transport
    releases upward records its link sequence number — the raw
    observable behind the exactly-once, any-order contract.
    """
    system = build_system("a1", group_sizes=[3, 3], seed=seed,
                          transport="reliable")
    applied = apply_adversary(system, get_adversary(adversary_name))
    system.applied_adversary = applied
    system.stabilization_checker = StreamingStabilizationChecker()
    system.stabilization_checker.attach(system)

    released = defaultdict(list)
    for process in system.network.processes():
        for kind, handler in list(process._handlers.items()):
            if kind == ACK_KIND:
                continue

            def recorder(msg, _handler=handler):
                if msg.wire is not None:
                    released[(msg.src, msg.dst)].append(msg.wire >> 8)
                _handler(msg)

            process._handlers[kind] = recorder

    plans = poisson_workload(
        system.topology, system.rng.stream("wl"),
        rate=1.5, duration=18.0, destinations=uniform_k_groups(2),
    )
    schedule_workload(system, plans)
    system.run_quiescent()
    return system, applied, released


@pytest.mark.parametrize("adversary_name", LOSSY_NAMES)
@pytest.mark.parametrize("seed", [1, 7])
def test_reliable_transport_exactly_once_no_gap(adversary_name, seed):
    """Under every loss adversary, each link releases a permutation of
    0 .. n-1.

    No duplicate (a repeated seq), no gap (a skipped seq), no
    corruption passed upward (a corrupted frame fails its checksum, is
    dropped, and must be retransmitted — so it still shows up exactly
    once).  Order is *not* promised: quasi-reliable links are not FIFO
    (§2.1), and a retransmitted frame lands behind its successors.
    """
    system, applied, released = _run_reliable(adversary_name, seed)
    assert applied.total_faults > 0, \
        f"{adversary_name} injected nothing — the test is vacuous"

    for link, seqs in released.items():
        assert len(set(seqs)) == len(seqs), (
            f"link {link} released a seq twice: {seqs[:20]}... "
            f"(adversary {adversary_name}, seed {seed})"
        )
        assert sorted(seqs) == list(range(len(seqs))), (
            f"link {link} skipped a seq: {sorted(seqs)[:20]}... "
            f"(adversary {adversary_name}, seed {seed})"
        )
    assert any(seqs != sorted(seqs) for seqs in released.values()), \
        "no link ever released ahead of a gap — the test is vacuous"

    stats = system.transport.stats
    total = sum(len(seqs) for seqs in released.values())
    assert total == stats.released
    # Everything the senders sequenced was eventually released: no
    # crash injector here, so no link is exempt.
    assert stats.released == stats.data_copies
    drained = system.transport.outstanding()
    assert drained == {"unacked": {}, "out_of_order": {}}


@pytest.mark.parametrize("adversary_name", LOSSY_NAMES)
def test_reliable_transport_run_is_correct_and_stabilizes(adversary_name):
    """The composition passes the paper's checkers and self-stabilizes."""
    system, applied, _ = _run_reliable(adversary_name, seed=1)
    assert applied.total_faults > 0
    check_all(system.log, system.topology)
    report = check_stabilization(system)
    assert report.stabilized
    assert report.horizon == 25.0
    assert report.last_fault_at is not None
    assert report.last_fault_at < report.horizon
    assert report.last_delivery_at is not None


def test_lossy_medium_exercises_every_defence():
    """The medium adversary makes the transport earn each counter."""
    system, _, _ = _run_reliable("lossy-medium", seed=1)
    stats = system.transport.stats
    assert stats.retransmits > 0, "drops never forced a retransmission"
    assert stats.dup_suppressed > 0, "duplicates never reached dedup"
    assert stats.corrupt_detected > 0, "corruption never hit a checksum"
    assert stats.acks_sent > 0
