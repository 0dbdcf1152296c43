"""The fence rule: a pushed move needs no leg, a bounced one the bouncer.

A transaction that executes key x at its new owner h is serialised
after every old-epoch transaction on x iff h A-Delivers it after R, the
move's ``ReconfigOp``.  The tests pin both halves of the rule
(:class:`TestSessionState`), that it is *minimal* — drop the one leg
that is left and a crafted schedule produces a real serializability
cycle the checkers catch (:class:`TestBouncerLegIsNeeded`) — and that
it keeps the cost of online rebalancing bounded by churn rather than by
history (:class:`TestCostStaysBounded`).
"""

import dataclasses

import pytest

from repro.campaigns.library import rebalance
from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.net.topology import Fixed, LatencyModel
from repro.reconfig.checker import ReconfigViolation, check_reconfig
from repro.reconfig.txn import ReconfigOp, is_control
from repro.store import StoreCluster, StoreSpec, check_serializability
from repro.store.checker import SerializabilityViolation
from repro.store.client import StoreClient
from repro.store.workload import key_name

from test_reconfig import build_elastic, first_client, migrate, settle


def other_groups(cluster, key):
    src = cluster.partition_map.group_of(key)
    return src, (src + 1) % 3, (src + 2) % 3


class TestSessionState:
    KEY = "k00000"

    def test_push_after_bounce_clears_the_leg(self):
        cluster = build_elastic()
        src, dst, other = other_groups(cluster, self.KEY)
        migrate(cluster, "rc00001", self.KEY, dst)
        session = first_client(cluster, other)
        session.submit("t1", (("put", self.KEY, 1),))
        settle(cluster)
        assert session.fences == {self.KEY: {src}}

        session.learn(self.KEY, dst, "rc00001")
        assert session.fences == {}
        assert session.overrides[self.KEY] == dst
        assert session.submit(
            "t2", (("incr", self.KEY, 1),)).dest_groups == (dst,)
        settle(cluster)
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_bounce_after_push_adds_no_leg_and_keeps_the_route(self):
        cluster = build_elastic(n_groups=4)
        src = cluster.partition_map.group_of(self.KEY)
        dst, other, home = ((src + i) % 4 for i in (1, 2, 3))
        session = first_client(cluster, home)
        migrate(cluster, "rc00001", self.KEY, dst)
        onward = ReconfigOp(reconfig_id="rc00002", src=dst, dst=other,
                            keys=(self.KEY,))
        cluster.stores[cluster.system.topology.members(dst)[0]
                       ].submit_reconfig(onward)
        settle(cluster)
        # Cast under the epoch-0 route and still in flight when both
        # pushes arrive: the notice it earns at src names the *first*
        # move, which used to overwrite the newer pushed owner.
        session.submit("t-stale", (("put", self.KEY, 5),))
        session.learn(self.KEY, dst, "rc00001")
        session.learn(self.KEY, other, "rc00002")
        settle(cluster)

        assert ("t-stale", src) in cluster.tracker.bounces
        assert session.overrides[self.KEY] == other   # not regressed
        assert session.fences == {}                   # not re-armed
        residue = next(m for mid, m in cluster.system.log.cast_map.items()
                       if mid.startswith("t-stale~r"))
        assert "t-stale" in cluster.tracker.committed
        for pid in cluster.system.topology.members(other):
            assert cluster.stores[pid].state[self.KEY] == 5
        # One residue, by the route the session holds, without a leg.
        assert residue.dest_groups == (other,)
        assert len(cluster.tracker.bounces) == 1
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_stale_notice_of_an_older_move_is_ignored(self):
        cluster = build_elastic()
        src, dst, other = other_groups(cluster, self.KEY)
        session = first_client(cluster, other)
        session.submit("t0", (("put", self.KEY, 0),))
        session.learn(self.KEY, other, "rc00002")
        session.on_wrong_epoch("t0", src, (self.KEY,),
                               {self.KEY: (dst, "rc00001")})
        assert session.overrides[self.KEY] == other
        assert session.fences == {}
        # A newer one replaces whatever leg stood.
        session.fences[self.KEY] = {src}
        session.on_wrong_epoch("t0", other, (self.KEY,),
                               {self.KEY: (dst, "rc00003")})
        assert session.fences == {self.KEY: {other}}
        assert session.overrides[self.KEY] == dst
        session.inv()

    # ``"rc100000" < "rc99999"`` as strings: from the 100 000th move on,
    # a text comparison took every newer move for a stale one.
    def test_push_of_the_100000th_move_is_newer(self):
        cluster = build_elastic()
        src, dst, other = other_groups(cluster, self.KEY)
        session = first_client(cluster, other)
        session.learn(self.KEY, dst, "rc99999")
        session.learn(self.KEY, other, "rc100000")
        assert session.overrides[self.KEY] == other
        session.learn(self.KEY, dst, "rc99999")          # late, stale
        assert session.overrides[self.KEY] == other
        assert session.learned[self.KEY] == "rc100000"

    def test_bounce_of_the_100000th_move_is_newer(self):
        cluster = build_elastic()
        src, dst, other = other_groups(cluster, self.KEY)
        session = first_client(cluster, other)
        session.learn(self.KEY, dst, "rc99999")
        session.on_wrong_epoch("t0", dst, (self.KEY,),
                               {self.KEY: (other, "rc100000")})
        assert session.overrides[self.KEY] == other
        assert session.fences == {self.KEY: {dst}}
        session.on_wrong_epoch("t1", src, (self.KEY,),
                               {self.KEY: (dst, "rc99999")})   # stale
        assert session.overrides[self.KEY] == other
        assert session.fences == {self.KEY: {dst}}
        session.inv()

    def test_hot_potato_with_a_stale_transaction_in_flight(self):
        """g -> h -> g: the stale transaction bounces at g while the key
        is away, its residue bounces at h once the key has left again,
        and the second residue executes at g — one leg at a time."""
        cluster = build_elastic()
        g, h, other = other_groups(cluster, self.KEY)
        first_client(cluster, g).submit("t0", (("put", self.KEY, 10),))
        settle(cluster)
        migrate(cluster, "rc00001", self.KEY, h)
        session = first_client(cluster, other)
        session.submit("t-stale", (("incr", self.KEY, 1),))
        sim = cluster.system.sim
        back = ReconfigOp(reconfig_id="rc00002", src=h, dst=g,
                          keys=(self.KEY,))
        legs = []
        real = session.on_wrong_epoch

        def spy(*args):
            real(*args)
            if legs[-1:] != [session.fences]:  # one notice per replica
                legs.append(dict(session.fences))
        session.on_wrong_epoch = spy
        # The key goes home while the first residue is on its way to h.
        sim.call_at(sim.now + 0.5, lambda: cluster.stores[
            cluster.system.topology.members(h)[0]].submit_reconfig(back))
        settle(cluster)

        assert legs == [{self.KEY: {g}}, {self.KEY: {h}}]
        assert session.overrides[self.KEY] == g
        assert "t-stale" in cluster.tracker.committed
        for pid in cluster.system.topology.members(g):
            assert cluster.stores[pid].state[self.KEY] == 11
        check_serializability(cluster)
        summary = check_reconfig(cluster)
        assert summary["completed"] == ["rc00001", "rc00002"]


class TestCheckerOrdersAcrossTheMove:
    def test_replay_order_does_not_depend_on_txn_ids(self):
        """Old and new owner share no transaction here, and the ids sort
        the post-move writer first: only the move's own conflict edge
        (last executor before R -> first after H) orders the replay."""
        cluster = build_elastic()
        key = "k00000"
        src, dst, other = other_groups(cluster, key)
        first_client(cluster, src).submit("z-old", (("put", key, 1),))
        settle(cluster)
        migrate(cluster, "rc00001", key, dst)
        session = first_client(cluster, other)
        session.learn(key, dst, "rc00001")
        msg = session.submit("a-new", (("incr", key, 1), ("get", key)))
        assert msg.dest_groups == (dst,)
        settle(cluster)
        order = check_serializability(cluster)
        assert order.index("z-old") < order.index("a-new")
        check_reconfig(cluster)

    def test_edge_chases_through_a_tenure_nobody_used(self):
        cluster = build_elastic()
        key = "k00000"
        src, dst, other = other_groups(cluster, key)
        first_client(cluster, src).submit("z-old", (("put", key, 1),))
        settle(cluster)
        migrate(cluster, "rc00001", key, dst)
        onward = ReconfigOp(reconfig_id="rc00002", src=dst, dst=other,
                            keys=(key,))
        cluster.stores[cluster.system.topology.members(dst)[0]
                       ].submit_reconfig(onward)
        settle(cluster)
        session = first_client(cluster, src)
        session.learn(key, other, "rc00002")
        session.submit("a-new", (("incr", key, 1),))
        settle(cluster)
        order = check_serializability(cluster)
        assert order.index("z-old") < order.index("a-new")
        summary = check_reconfig(cluster)
        assert summary["completed"] == ["rc00001", "rc00002"]


def crafted_window():
    """Four groups, g's outgoing links to h and k ten times slower, g's
    clock run ahead by local traffic: g delivers R (and bounces a stale
    transaction) long before h can, and k is still waiting for g's
    timestamp of an old-epoch transaction on (x, y).

    Returns ``(cluster, outran)`` after the run: ``t_old`` writes x and
    y under epoch 0, ``t_stale`` bounces at g, then the same session
    reads x and y.
    """
    spec = StoreSpec(n_keys=9, kind="periodic", count=0,
                     rebalance_interval=10_000.0, notice_delay=0.5)
    pmap = StoreCluster.build([2] * 4, store=spec, seed=2).partition_map
    x = key_name(0)
    g = pmap.group_of(x)
    y = next(key_name(i) for i in range(9)
             if pmap.group_of(key_name(i)) != g)
    k = pmap.group_of(y)
    h, c = (gid for gid in range(4) if gid not in (g, k))
    latency = LatencyModel(
        intra=Fixed(0.001), inter=Fixed(1.0),
        pairwise_inter={(g, h): Fixed(10.0), (g, k): Fixed(10.0)})
    cluster = StoreCluster.build([2] * 4, store=spec, seed=2,
                                 latency=latency)
    sim, topology = cluster.system.sim, cluster.system.topology
    local, far = first_client(cluster, g), first_client(cluster, c)
    for i in range(20):
        sim.call_at(1.0 + i, lambda i=i: local.submit(
            f"warm{i}", (("incr", x, 1),)))
    sim.call_at(50.0, lambda: far.submit(
        "t_old", (("put", x, 100), ("put", y, 100))))
    move = ReconfigOp(reconfig_id="rc00001", src=g, dst=h, keys=(x,))
    sim.call_at(53.0, lambda: cluster.stores[
        topology.members(c)[0]].submit_reconfig(move))
    # Proposed at g while R is pending there: delivered right after R.
    sim.call_at(53.5, lambda: far.submit("t_stale", (("incr", x, 1),)))
    sim.call_at(58.0, lambda: far.submit("t_read", (("get", x), ("get", y))))
    settle(cluster)
    outran = {txn_id for store in cluster.stores.values()
              for txn_id in store.outran}
    return cluster, outran


class TestBouncerLegIsNeeded:
    """Mutation test: the rule is minimal, not just sufficient."""

    def test_with_the_leg_the_window_is_serializable(self):
        cluster, outran = crafted_window()
        assert outran == set()
        casts = cluster.system.log.cast_map
        assert len(casts["t_stale~r1"].dest_groups) == 2   # h + bouncer
        assert len(casts["t_read"].dest_groups) == 3       # h, k + bouncer
        check_serializability(cluster)
        check_reconfig(cluster)

    def test_without_it_the_checkers_catch_a_real_cycle(self, monkeypatch):
        real = StoreClient.submit

        def legless(self, *args, **kwargs):
            self.fences.clear()
            return real(self, *args, **kwargs)
        monkeypatch.setattr(StoreClient, "submit", legless)

        cluster, outran = crafted_window()
        # The residue reached h before R did: it was ordered *before*
        # the move it relies on ...
        assert outran == {"t_stale~r1"}
        # ... so t_read saw t_old's write of x (through the handoff)
        # but not its write of y: t_old -> residue (x, across the
        # move), residue -> t_read (h's order), t_read -> t_old (k's).
        with pytest.raises(SerializabilityViolation) as caught:
            check_serializability(cluster)
        assert caught.value.context["kind"] == "cycle"
        assert {"t_old", "t_read", "t_stale~r1"} <= set(
            caught.value.context["transactions"])
        with pytest.raises(AssertionError):
            check_reconfig(cluster)

    def test_outran_journal_alone_fails_the_reconfig_checker(self):
        cluster = build_elastic()
        key = "k00000"
        src, dst, _ = other_groups(cluster, key)
        migrate(cluster, "rc00001", key, dst)
        pid = cluster.system.topology.members(dst)[0]
        cluster.stores[pid].outran["t-early"] = key
        with pytest.raises(ReconfigViolation, match="outran"):
            check_reconfig(cluster)


def bench_shaped(interval):
    """The ``store_rebalance`` benchmark cell at a quarter of its plan."""
    cell = next(s for s in rebalance(seeds=(42,)).scenarios
                if len(s.group_sizes) == 16
                and s.adversary in (None, "none"))
    return dataclasses.replace(cell, store=dataclasses.replace(
        cell.store, rate=0.75, duration=500.0,
        rebalance_interval=interval))


class TestCostStaysBounded:
    def test_destination_groups_do_not_grow_with_history(self):
        spec = bench_shaped(10.0)
        system, _, _ = build_scenario_system(spec, 42)
        cluster = system.store_cluster
        widest = 0
        while system.sim.pending_events:
            system.run(max_events=1)
            for client in cluster.clients.values():
                client.inv()
                widest = max([widest, *map(len, client.fences.values())])
        cluster.inv()
        verdicts = run_checkers(system, spec)
        assert all(v == "ok" for v in verdicts.values()), verdicts
        assert cluster.balancer.pushes >= 10
        assert widest == 1

        # Destination groups per data cast, in cast order.
        width = [len(msg.dest_groups)
                 for msg in system.log.cast_map.values()
                 if not is_control(msg.payload)]
        quarter = len(width) // 4
        first = sum(width[:quarter]) / quarter
        last = sum(width[-quarter:]) / quarter
        assert last <= 1.25 * first, (first, last)

        static, _, _ = build_scenario_system(bench_shaped(0.0), 42)
        static.run_quiescent()

        def per_cast(s):
            return s.network.stats.total_messages / len(s.log.cast_map)
        assert per_cast(system) <= 2.0 * per_cast(static), (
            per_cast(system), per_cast(static))
