"""Balancer hysteresis: decisions on decayed heat, not one tick's window.

One tick's window holds a dozen or so issues; deciding on it alone makes
a different group look cold at every tick, and an indivisibly hot key
follows it around.  :class:`TestNoPingPong` drives ``_tick`` over a
stationary journal in which exactly that happens to a window-only
balancer; :class:`TestStillAdapts` shows the filter costs a couple of
ticks of reaction, not the reaction; :class:`TestBenchShaped` checks
the effect on a quarter of the ``store_rebalance`` benchmark plan;
:class:`TestHeatTable` that the decayed table stays bounded.
"""

import math
import random

from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.reconfig import balancer
from repro.reconfig.metrics import reconfig_metrics

from test_fence_rule import bench_shaped
from test_reconfig import build_elastic, settle


def owned_keys(cluster):
    """group -> keys it owns at epoch 0, in key order."""
    pmap = cluster.partition_map
    out = {}
    for i in range(cluster.spec.n_keys):
        key = f"k{i:05d}"
        out.setdefault(pmap.group_of(key), []).append(key)
    return out


def drive(cluster, ticks, issues_of):
    """Per tick: journal ``issues_of(tick)`` (key -> count), tick the
    balancer, and let any move it started run to completion."""
    journal = cluster.tracker.key_issues
    for tick in range(ticks):
        for key, count in issues_of(tick).items():
            journal.extend([(float(tick), (key,))] * count)
        cluster.balancer._tick()
        settle(cluster)


def moves_of(bal, key):
    return [m for m in bal.migrations if key in m[4]]


class TestNoPingPong:
    def test_hot_key_moves_at_most_once_under_stationary_noise(self):
        """Four groups; the hot key carries most of the heat, each group
        one background key (the hot key's home the lightest), ±1 jitter,
        and each tick one group's background drops to zero in turn.

        A window-only balancer sees that dip as the coldest group every
        tick and moves the hot key to it: 23 moves in 24 ticks.  Decayed
        heat remembers the dipped group's load, so the hot key stays and
        its home sheds the background key instead."""
        cluster = build_elastic(n_groups=4)
        keys = owned_keys(cluster)
        hot = "k00000"
        home = cluster.partition_map.group_of(hot)
        background = {g: next(k for k in ks if k != hot)
                      for g, ks in keys.items()}
        rng = random.Random(7)

        def issues_of(tick):
            dipped = (home + tick) % 4
            out = {hot: 12}
            for gid, key in background.items():
                if gid != dipped:
                    out[key] = (2 if gid == home else 4) + rng.randint(0, 1)
            return out

        drive(cluster, 24, issues_of)
        bal = cluster.balancer
        assert len(moves_of(bal, hot)) <= 1, bal.migrations
        assert len(bal.migrations) <= 2, bal.migrations
        cluster.inv()


class TestStillAdapts:
    def test_shifted_heat_is_moved_within_three_ticks(self):
        """Ten ticks of one hot key alone on its group (nothing to move),
        then the same heat shifts to a key of another group that also
        carries background load: that key moves within three ticks."""
        cluster = build_elastic(n_groups=4)
        keys = owned_keys(cluster)
        first = "k00000"
        home = cluster.partition_map.group_of(first)
        other = (home + 1) % 4
        second, background = keys[other][:2]
        shift = 10

        def issues_of(tick):
            hot = first if tick < shift else second
            return {hot: 12, background: 3}

        drive(cluster, shift, issues_of)
        bal = cluster.balancer
        assert bal.migrations == []
        drive(cluster, 3, lambda tick: issues_of(shift + tick))
        (move,) = moves_of(bal, second)
        assert move[2] == other
        assert cluster.partition_map.group_of(first) == home


class TestBenchShaped:
    def test_quarter_plan_stops_ping_pong(self):
        """``store_rebalance`` at a quarter of its plan, seed 42.  With a
        window-only balancer: 26 migrations, 68 bounces, ``k00000``
        moved 17 times."""
        spec = bench_shaped(10.0)
        system, _, _ = build_scenario_system(spec, 42)
        system.run_quiescent()
        verdicts = run_checkers(system, spec)
        assert all(v == "ok" for v in verdicts.values()), verdicts
        metrics = reconfig_metrics(system)
        assert metrics["reconfigs_completed"] >= 5
        assert metrics["reconfig_max_moves_per_key"] <= 5, metrics
        assert metrics["wrong_epoch_bounces"] <= 68 / 4, metrics


class TestHeatTable:
    def test_steady_key_converges_and_silent_keys_are_forgotten(self):
        cluster = build_elastic()
        bal = cluster.balancer
        journal = cluster.tracker.key_issues
        # Once a key falls silent it survives this many folds at most.
        life = math.ceil(math.log(balancer._FORGET)
                         / math.log(balancer.HEAT_DECAY)) + 1
        widest = 0
        for tick in range(3 * life):
            journal.append((float(tick), ("steady",)))
            journal.extend((float(tick), (f"once-{tick}-{i}",))
                           for i in range(3))
            bal._fold_heat()
            widest = max(widest, len(bal.heat))
        assert widest <= 1 + 3 * life
        assert "once-0-0" not in bal.heat
        assert math.isclose(bal.heat["steady"],
                            1.0 / (1.0 - balancer.HEAT_DECAY))
