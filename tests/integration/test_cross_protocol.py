"""Cross-protocol validation: one workload, every protocol, same laws.

The strongest correctness argument available to a reproduction: five
independent implementations of atomic multicast (and four of atomic
broadcast) are driven by the *same* workload plan and must all satisfy
the same paper properties, deliver the same message sets, and respect
the same latency-degree floors.  A bug in any single protocol — or in
the shared substrate — shows up as a divergence here.
"""

import pytest

from repro.checkers.properties import check_all
from repro.runtime.builder import SystemSpec, build_system
from repro.store import StoreCluster, StoreSpec, check_serializability
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)

MULTICASTS = ("a1", "a1-noskip", "skeen", "fritzke", "ring", "global")
BROADCASTS = ("a2", "sequencer", "optimistic", "detmerge")


def _multicast_run(protocol, seed=17):
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[2, 2, 2]),
                          seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("shared-wl"), rate=0.6,
        duration=12.0, destinations=uniform_k_groups(2),
    )
    messages = schedule_workload(system, plans)
    system.run_quiescent()
    return system, messages


def _broadcast_run(protocol, seed=23):
    system = build_system(SystemSpec(protocol=protocol, group_sizes=[2, 2]),
                          seed=seed)
    plans = poisson_workload(
        system.topology, system.rng.stream("shared-wl"), rate=0.5,
        duration=10.0,
    )
    messages = schedule_workload(system, plans)
    system.run_quiescent()
    return system, messages


@pytest.fixture(scope="module")
def multicast_runs():
    return {p: _multicast_run(p) for p in MULTICASTS}


@pytest.fixture(scope="module")
def broadcast_runs():
    return {p: _broadcast_run(p) for p in BROADCASTS}


class TestMulticastFamily:
    @pytest.mark.parametrize("protocol", MULTICASTS)
    def test_properties_hold(self, multicast_runs, protocol):
        system, _ = multicast_runs[protocol]
        check_all(system.log, system.topology)

    def test_same_delivery_sets_everywhere(self, multicast_runs):
        """Same plan => every protocol delivers exactly the same
        operations at exactly the same processes.

        Footprints compare the workload payloads — the plan indices —
        which name each operation the same way in every protocol's run.
        """
        footprints = {}
        for protocol, (system, messages) in multicast_runs.items():
            footprints[protocol] = tuple(sorted(
                (pid, frozenset(
                    m.payload
                    for m in system.log.sequences.get(pid, [])))
                for pid in system.topology.processes
            ))
        assert len(set(footprints.values())) == 1

    @pytest.mark.parametrize("protocol", MULTICASTS)
    def test_genuine_degree_floor(self, multicast_runs, protocol):
        system, messages = multicast_runs[protocol]
        for msg in messages:
            if len(msg.dest_groups) < 2:
                continue
            degree = system.meter.latency_degree(msg.mid)
            assert degree is not None and degree >= 2, (protocol, msg.mid)

    def test_a1_is_the_cheapest_optimal_protocol(self, multicast_runs):
        """Among the degree-2 protocols, A1 sends the least traffic."""
        totals = {}
        for protocol in ("a1", "fritzke"):
            system, _ = multicast_runs[protocol]
            totals[protocol] = (system.inter_group_messages
                                + system.intra_group_messages)
        assert totals["a1"] < totals["fritzke"]


class TestBroadcastFamily:
    @pytest.mark.parametrize("protocol", BROADCASTS)
    def test_properties_hold(self, broadcast_runs, protocol):
        system, _ = broadcast_runs[protocol]
        check_all(system.log, system.topology)

    def test_same_delivery_sets_everywhere(self, broadcast_runs):
        footprints = {}
        for protocol, (system, messages) in broadcast_runs.items():
            footprints[protocol] = tuple(sorted(
                (pid, frozenset(
                    m.payload
                    for m in system.log.sequences.get(pid, [])))
                for pid in system.topology.processes
            ))
        assert len(set(footprints.values())) == 1

    @pytest.mark.parametrize("protocol", BROADCASTS)
    def test_every_process_agrees_on_one_total_order(
            self, broadcast_runs, protocol):
        """For broadcast the projection is trivial: the full sequences
        must be prefix-related; at quiescence they are equal."""
        system, _ = broadcast_runs[protocol]
        sequences = {tuple(system.log.sequence(p))
                     for p in system.topology.processes}
        assert len(sequences) == 1



def _store_run(protocol, routing, seed=31):
    """Two conflicting cross-partition writes and one local write.

    Explicit placement on ``[2, 2]``: ``x`` (k00000) lives in group 0,
    ``y`` (k00001) in group 1; clients sit at pids 0 and 2.
    """
    cluster = StoreCluster.build(
        SystemSpec(protocol=protocol, group_sizes=(2, 2)),
        store=StoreSpec(n_keys=4, kind="periodic", count=0, routing=routing),
        seed=seed,
    )
    x, y = "k00000", "k00001"
    cluster.client(0).submit("A", (("put", x, "A"), ("put", y, "A")))
    cluster.client(2).submit("B", (("put", x, "B"), ("put", y, "B")))
    cluster.client(0).submit("C", (("put", x, "C"),))
    cluster.system.run_quiescent()
    assert not cluster.tracker.uncommitted()
    cluster.assert_convergence()
    check_serializability(cluster)
    return cluster


class TestReplicationOverEveryProtocol:
    @pytest.mark.parametrize("protocol", MULTICASTS)
    def test_store_converges_on_all_multicasts(self, protocol):
        """Partial replication: both partitions order the two
        cross-partition writes alike, so they agree on the last one."""
        cluster = _store_run(protocol, "genuine")
        order_x = [t for t in cluster.store(0).applied if t in ("A", "B")]
        order_y = [t for t in cluster.store(2).applied if t in ("A", "B")]
        assert order_x == order_y and sorted(order_x) == ["A", "B"]
        assert cluster.store(2).get("k00001") == order_y[-1]
        assert cluster.store(1).get("k00000") \
            == cluster.store(0).applied[-1]

    @pytest.mark.parametrize("protocol", BROADCASTS)
    def test_store_converges_on_all_broadcasts(self, protocol):
        """Full replication: every replica executes every transaction,
        in the one total order of the broadcast."""
        cluster = _store_run(protocol, "broadcast")
        journals = {tuple(cluster.store(pid).applied)
                    for pid in cluster.system.topology.processes}
        assert len(journals) == 1
        (journal,) = journals
        assert sorted(journal) == ["A", "B", "C"]
        assert cluster.store(3).get("k00001") \
            == [t for t in journal if t in ("A", "B")][-1]
        assert cluster.store(1).get("k00000") == journal[-1]
