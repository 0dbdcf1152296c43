"""The whole-journal store checker decides exactly as the per-item one.

``serializability_oracle.py`` keeps the item-by-item checker the store
used to run.  :class:`StreamingSerializabilityChecker` now decides the
passing case on whole journals and whole effects records and falls back
to an item loop only to word a violation, so on every cluster here both
must agree: on a healthy run the same serial order, canonical group
orders and reconfig replay; on a cluster tampered into a violation the
same kind, context and message.  ``check_reconfig`` runs the same
checker inside, so elastic runs are compared too.
"""

import dataclasses

import pytest

from repro.campaigns.library import rebalance
from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import LatencySpec, ScenarioSpec
from repro.reconfig.checker import check_reconfig
from repro.runtime.builder import SystemSpec
from repro.store import (
    SerializabilityViolation,
    StoreCluster,
    StoreSpec,
    StreamingSerializabilityChecker,
)
from repro.store.transaction import Transaction, TxnEffects

from serializability_oracle import OracleSerializabilityChecker


def verdict(checker_class, cluster):
    checker = checker_class(cluster.system.topology)
    try:
        checker.ingest_journals(cluster)
        order = checker.finalize(cluster)
    except SerializabilityViolation as exc:
        return ("violation", exc.context, str(exc))
    return ("ok", order, checker.group_orders(), checker.reconfig_replay)


def assert_agree(cluster):
    """Both checkers' verdicts, which must be equal; returns it."""
    new = verdict(StreamingSerializabilityChecker, cluster)
    assert new == verdict(OracleSerializabilityChecker, cluster)
    return new


def small_cluster(seed=1, **spec_kwargs):
    """A finished (2, 2, 2) A1 store run."""
    store = dict(n_keys=16, rate=1.0, duration=25.0,
                 multi_partition_fraction=0.4)
    store.update(spec_kwargs)
    cluster = StoreCluster.build(
        SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
        store=StoreSpec(**store), seed=seed)
    cluster.system.run_quiescent()
    return cluster


def store_mix(scale):
    """The ``store_mix`` benchmark scenario, its plan divided by
    ``scale``."""
    return ScenarioSpec(
        name="store_mix", protocol="a1", group_sizes=(2,) * 8,
        latency=LatencySpec.wan(),
        store=StoreSpec(n_keys=256, rate=0.12, duration=60000.0 / scale,
                        read_fraction=0.5, multi_partition_fraction=0.4,
                        zipf_skew=1.0),
    )


def rebalance_cell(adversary=None):
    """The ``rebalance`` campaign's 16-group balancer-on cell, or its
    adversary cell of that name."""
    for spec in rebalance().scenarios:
        if adversary is None and spec.name == (
                "rebalance-16g/rebalance_interval=10"):
            return spec
        if adversary is not None and spec.adversary == adversary:
            return spec
    raise LookupError(adversary)


def finished(spec, seed):
    system, _, _ = build_scenario_system(spec, seed)
    system.run_quiescent()
    return system.store_cluster


# ----------------------------------------------------------------------
# Journal surgery
# ----------------------------------------------------------------------
def members(cluster, gid):
    return cluster.system.topology.members(gid)


def swap(store, i, j):
    for journal in (store.applied, store.applied_txns):
        journal[i], journal[j] = journal[j], journal[i]


def remove(store, item_id):
    position = store.applied.index(item_id)
    del store.applied[position]
    return store.applied_txns.pop(position)


def executed_in(cluster):
    """item id -> the groups whose journals hold it."""
    executed = {}
    for pid, store in sorted(cluster.stores.items()):
        gid = cluster.system.topology.group_of(pid)
        for item_id in store.applied:
            executed.setdefault(item_id, set()).add(gid)
    return executed


def multi_group_txn(cluster):
    """(txn id, its groups) of a txn executed by more than one group."""
    for item_id, gids in executed_in(cluster).items():
        if len(gids) > 1:
            return item_id, sorted(gids)
    pytest.skip("run has no multi-group transaction")


def last_multi_group_txn(cluster):
    """(gid, txn id): a multi-group txn that ends every journal of
    group gid, or None."""
    executed = executed_in(cluster)
    for gid in cluster.system.topology.group_ids:
        last = {cluster.stores[pid].applied[-1]
                for pid in members(cluster, gid)}
        if len(last) == 1 and len(executed[next(iter(last))]) > 1:
            return gid, last.pop()
    return None


def shared_pair(cluster):
    """(a, b, g1, g2): txns a before b in the journals of both groups."""
    topology = cluster.system.topology
    journals = {gid: cluster.stores[members(cluster, gid)[0]].applied
                for gid in topology.group_ids}
    for g1 in topology.group_ids:
        for g2 in topology.group_ids:
            if g1 >= g2:
                continue
            common = [t for t in journals[g1] if t in set(journals[g2])]
            if len(common) >= 2:
                return common[0], common[1], g1, g2
    pytest.skip("no two txns shared by two groups")


def first_effects(cluster, field):
    """(pid, txn id, op index) of the first recorded entry of ``field``
    in pid order."""
    for pid, store in sorted(cluster.stores.items()):
        for txn_id in store.applied:
            effects = store.effects_of(txn_id)  # None at a control
            for index in getattr(effects, field, ()):
                return pid, txn_id, index
    pytest.skip(f"run recorded no {field}")


def own_copy(store, txn_id, **changes):
    """Give ``store`` a private effects record for ``txn_id``."""
    effects = store.effects_of(txn_id)
    store._effects[txn_id] = TxnEffects(
        txn_id, changes.get("reads", dict(effects.reads)),
        changes.get("cas_applied", dict(effects.cas_applied)))


# ----------------------------------------------------------------------
# Tampered clusters: one per violation kind (and the excused cases)
# ----------------------------------------------------------------------
def t_swap_second_member(cluster):
    swap(cluster.stores[members(cluster, 0)[1]], 1, 2)
    return "replica_divergence"


def t_swap_first_member(cluster):
    swap(cluster.stores[members(cluster, 1)[0]], 0, 1)
    return "replica_divergence"


def t_foreign_last_item(cluster):
    store = cluster.stores[members(cluster, 2)[1]]
    store.applied[-1] = "intruder"
    return "replica_divergence"


def t_two_groups_diverge(cluster):
    swap(cluster.stores[members(cluster, 2)[1]], 0, 1)
    swap(cluster.stores[members(cluster, 0)[1]], 3, 4)
    return "replica_divergence"


def t_truncated_member(cluster):
    store = cluster.stores[members(cluster, 1)[0]]
    del store.applied[-3:]
    del store.applied_txns[-3:]
    return None  # a prefix is consistent


def t_emptied_member(cluster):
    store = cluster.stores[members(cluster, 0)[0]]
    store.applied.clear()
    store.applied_txns.clear()
    return None  # an empty journal is a prefix; the state still agrees


def t_phantom(cluster):
    ghost = Transaction("ghost", client=0, ops=(("get", "k00000"),))
    for pid in members(cluster, 0):
        cluster.stores[pid].applied.append("ghost")
        cluster.stores[pid].applied_txns.append(ghost)
    return "phantom_txn"


def t_partial_commit(cluster):
    txn_id, gids = multi_group_txn(cluster)
    for pid in members(cluster, gids[-1]):
        remove(cluster.stores[pid], txn_id)
    return "partial_commit"


def t_stalled(cluster):
    """The last txn of a group's journals is put back in its replicas'
    queues: a stalled txn is uncommitted, not partially committed."""
    found = last_multi_group_txn(cluster)
    if found is None:
        pytest.skip("no group's journals end with a multi-group txn")
    gid, txn_id = found
    for pid in members(cluster, gid):
        store = cluster.stores[pid]
        store._inbox.append((None, remove(store, txn_id)))
    return "any"  # the replicas still hold its writes, if it had any


def t_cycle(cluster):
    a, b, g1, _ = shared_pair(cluster)
    for pid in members(cluster, g1):
        store = cluster.stores[pid]
        swap(store, store.applied.index(a), store.applied.index(b))
    return "cycle"


def t_executed_twice(cluster):
    """A txn twice in a group's journals puts a cycle in its chain."""
    for pid in members(cluster, 1):
        store = cluster.stores[pid]
        store.applied.append(store.applied[-3])
        store.applied_txns.append(store.applied_txns[-3])
    return "cycle"


def t_read_shared(cluster):
    pid, txn_id, index = first_effects(cluster, "reads")
    cluster.stores[pid].effects_of(txn_id).reads[index] = "stale"
    return "read_divergence"


def t_read_own(cluster):
    pid, txn_id, index = first_effects(cluster, "reads")
    peer = [q for q in members(cluster, cluster.system.topology.group_of(
        pid)) if q != pid][-1]
    reads = dict(cluster.stores[peer].effects_of(txn_id).reads)
    reads[index] = "stale"
    own_copy(cluster.stores[peer], txn_id, reads=reads)
    return "read_divergence"


def t_cas(cluster):
    pid, txn_id, index = first_effects(cluster, "cas_applied")
    store = cluster.stores[pid]
    flipped = dict(store.effects_of(txn_id).cas_applied)
    flipped[index] = not flipped[index]
    own_copy(store, txn_id, cas_applied=flipped)
    return "cas_divergence"


def t_foreign_effects_entry(cluster):
    """An entry at an op another group owns is not this group's to
    answer for: neither checker reads it."""
    txn_id, gids = multi_group_txn(cluster)
    txn = cluster.txns[txn_id]
    pmap = cluster.partition_map
    index = next((i for i, op in enumerate(txn.ops)
                  if pmap.group_of(op[1]) != gids[0]), None)
    if index is None:
        pytest.skip("no op outside the first group")
    store = cluster.stores[members(cluster, gids[0])[1]]
    reads = dict(store.effects_of(txn_id).reads)
    reads[index] = "not mine"
    own_copy(store, txn_id, reads=reads)
    return None


def t_state_value(cluster):
    store = cluster.stores[members(cluster, 1)[1]]
    key = next(iter(store.state))
    store.state[key] = "corrupted"
    return "state_divergence"


def t_state_extra_key(cluster):
    cluster.stores[members(cluster, 2)[0]].state["zzz"] = 1
    return "state_divergence"


def t_state_missing_key(cluster):
    store = cluster.stores[members(cluster, 0)[0]]
    del store.state[sorted(store.state)[0]]
    return "state_divergence"


TAMPERS = [t_swap_second_member, t_swap_first_member, t_foreign_last_item,
           t_two_groups_diverge, t_truncated_member, t_emptied_member,
           t_phantom, t_partial_commit, t_stalled, t_cycle, t_executed_twice,
           t_read_shared, t_read_own, t_cas, t_foreign_effects_entry,
           t_state_value, t_state_extra_key, t_state_missing_key]


def kind_of(result):
    return result[1]["kind"] if result[0] == "violation" else None


class TestTamperedRuns:
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("tamper", TAMPERS, ids=lambda t: t.__name__)
    def test_same_violation_as_the_oracle(self, tamper, seed):
        cluster = small_cluster(seed=seed, read_fraction=0.3)
        want = tamper(cluster)
        result = assert_agree(cluster)
        if want != "any":
            assert kind_of(result) == want, result

    def test_stalled_txn_is_excused_by_both(self):
        """A read-only leg at the stalling group leaves its state as
        the replay has it, so both checkers pass."""
        for seed in range(1, 30):
            cluster = small_cluster(seed=seed, read_fraction=1.0)
            found = last_multi_group_txn(cluster)
            if found is None:
                continue
            t_stalled(cluster)
            result = assert_agree(cluster)
            assert result[0] == "ok", result
            assert found[1] in result[1]
            return
        pytest.fail("no seed ends a group's journals with a "
                    "multi-group txn")

    def test_crashed_partition_excuses_missing_execution(self):
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
            store=StoreSpec(n_keys=16, rate=1.0, duration=25.0,
                            multi_partition_fraction=0.4),
            seed=1)
        for pid in members(cluster, 1):
            cluster.system.sim.call_at(
                6.0, cluster.system.network.process(pid).crash)
        cluster.system.run_quiescent()
        executed = executed_in(cluster)
        cast_map = cluster.system.log.cast_map
        # Some txn addressed to the crashed group ran elsewhere only.
        assert any(1 in cast_map[t].dest_groups and 1 not in gids
                   for t, gids in executed.items())
        assert assert_agree(cluster)[0] == "ok"
        t_state_value(cluster)  # group 1 crashed: nobody to compare
        assert assert_agree(cluster)[0] == "ok"

    @pytest.mark.parametrize("member", [0, 1])
    def test_diverged_replica_with_its_own_effects(self, member):
        """One replica's state diverges mid-run, so it records its own
        effects object; both checkers name it in the same words."""
        reference = small_cluster(seed=1)
        for store in reference.stores.values():
            for position in range(1, len(store.applied)):
                txn = store.applied_txns[position]
                effects = store.effects_of(txn.txn_id)
                index = next(iter(effects.reads), None)
                if index is not None and txn.ops[index][1] in store.state:
                    break
            else:
                continue
            break
        else:
            pytest.skip("run recorded no read of a written key")
        prior, key = store.applied[position - 1], txn.ops[index][1]
        group = members(reference, reference.system.topology.group_of(
            store.process.pid))
        pid = group[member]
        cluster = StoreCluster.build(
            SystemSpec(protocol="a1", group_sizes=(2, 2, 2)),
            store=StoreSpec(n_keys=16, rate=1.0, duration=25.0,
                            multi_partition_fraction=0.4),
            seed=1)
        target = cluster.stores[pid]

        def diverge(msg):
            if msg.mid == prior:
                target.state[key] = "diverged"

        cluster.system.add_delivery_tap(pid, diverge)
        cluster.system.run_quiescent()
        result = assert_agree(cluster)
        assert kind_of(result) == "read_divergence"
        assert result[1]["pid"] == pid


class TestCampaignRuns:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_store_mix_same_serial_order(self, seed):
        cluster = finished(store_mix(8), seed)
        result = assert_agree(cluster)
        assert result[0] == "ok" and len(result[1]) > 800

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("adversary", [None, "phase-crash"])
    def test_rebalance_cell_same_order_and_replay(self, adversary, seed):
        cluster = finished(rebalance_cell(adversary), seed)
        result = assert_agree(cluster)
        assert result[0] == "ok" and result[3]
        check_reconfig(cluster)

    @pytest.mark.parametrize("tamper", [t_swap_second_member, t_cycle,
                                        t_state_value, t_cas],
                             ids=lambda t: t.__name__)
    def test_tampered_elastic_run(self, tamper):
        cluster = finished(rebalance_cell(), 2)
        tamper(cluster)
        assert assert_agree(cluster)[0] == "violation"

    def test_rerouted_run_without_moves(self):
        """Route tags but no control in any journal (the balancer never
        ticks): the walk still runs."""
        spec = rebalance_cell()
        spec = dataclasses.replace(spec, store=dataclasses.replace(
            spec.store, rebalance_interval=1e9))
        cluster = finished(spec, 1)
        assert any(txn.routes for txn in cluster.txns.values())
        assert not any(item.startswith("@")
                       for store in cluster.stores.values()
                       for item in store.applied)
        assert assert_agree(cluster)[0] == "ok"
