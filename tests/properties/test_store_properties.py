"""Property-based tests of the transactional store's replication.

Random transaction sequences, submitted by hand through the client
sessions, against partial replication (genuine routing over A1) and
full replication (broadcast routing over A2).  The invariants are
convergence (all correct replicas of a partition end identical), one
execution order per group, every submission committing, and
determinism (same seed, same final state).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.builder import SystemSpec
from repro.store import StoreCluster, StoreSpec, check_serializability

FAST = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Explicit placement on two groups: k00000/k00002 in group 0,
#: k00001/k00003 in group 1.
KEYS = ["k00000", "k00001", "k00002", "k00003"]

#: (protocol, routing) for partial and for full replication.
DEPLOYMENTS = [("a1", "genuine"), ("a2", "broadcast")]


@st.composite
def txn_batches(draw, max_txns=8):
    """A list of (time, client index, ops) hand-submitted transactions."""
    count = draw(st.integers(min_value=1, max_value=max_txns))
    txns = []
    for _ in range(count):
        time = draw(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False))
        client = draw(st.integers(min_value=0, max_value=1))
        keys = draw(st.sets(st.sampled_from(KEYS), min_size=1, max_size=3))
        ops = tuple(
            draw(st.sampled_from([
                ("put", key, draw(st.integers(min_value=0, max_value=99))),
                ("incr", key, draw(st.integers(min_value=1, max_value=9))),
                ("get", key),
            ]))
            for key in sorted(keys)
        )
        txns.append((time, client, ops))
    return txns


def run(protocol, routing, seed, txns):
    cluster = StoreCluster.build(
        SystemSpec(protocol=protocol, group_sizes=(2, 2)),
        store=StoreSpec(n_keys=len(KEYS), kind="periodic", count=0,
                        routing=routing),
        seed=seed,
    )
    client_pids = sorted(cluster.clients)
    for i, (time, client, ops) in enumerate(txns):
        pid = client_pids[client]
        cluster.system.sim.call_at(
            time, lambda p=pid, t=f"txn-{i}", o=ops:
                cluster.client(p).submit(t, o))
    cluster.system.run_quiescent(max_events=2_000_000)
    return cluster


@pytest.mark.parametrize("protocol,routing", DEPLOYMENTS)
class TestStoreReplicationProperties:
    @FAST
    @given(seed=st.integers(min_value=0, max_value=5_000),
           txns=txn_batches())
    def test_replicas_always_converge(self, protocol, routing, seed, txns):
        cluster = run(protocol, routing, seed, txns)
        cluster.assert_convergence()

    @FAST
    @given(seed=st.integers(min_value=0, max_value=5_000),
           txns=txn_batches())
    def test_group_replicas_apply_one_order(self, protocol, routing, seed,
                                            txns):
        cluster = run(protocol, routing, seed, txns)
        topology = cluster.system.topology
        for gid in topology.group_ids:
            journals = {tuple(cluster.store(pid).applied)
                        for pid in topology.members(gid)}
            assert len(journals) == 1

    @FAST
    @given(seed=st.integers(min_value=0, max_value=5_000),
           txns=txn_batches())
    def test_every_submission_commits_serializably(self, protocol, routing,
                                                   seed, txns):
        cluster = run(protocol, routing, seed, txns)
        assert len(cluster.tracker.committed) == len(txns)
        assert not cluster.tracker.uncommitted()
        check_serializability(cluster)

    @FAST
    @given(seed=st.integers(min_value=0, max_value=2_000),
           txns=txn_batches(max_txns=5))
    def test_same_seed_same_state(self, protocol, routing, seed, txns):
        def final_state():
            cluster = run(protocol, routing, seed, txns)
            return tuple(
                tuple(sorted(cluster.store(pid).owned_snapshot().items()))
                for pid in cluster.system.topology.processes)

        assert final_state() == final_state()
