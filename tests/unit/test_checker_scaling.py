"""Checkers at campaign scale: every implementation, one verdict.

The log below mirrors the biggest campaign shape — 8 groups, hundreds
of multicasts, full consistent delivery — and the one-pass
``check_all``, the per-property checks and the quadratic oracles they
replaced must all return the same verdict: ok.  The log is standalone,
so it owns its own record table; the checkers read each message's
deliverers off its record.  Host-time claims about the checkers are
measured by the bench (``check_s``), not here.
"""

import random

from repro.checkers.properties import (
    check_all,
    check_uniform_agreement,
    check_uniform_prefix_order,
)
from repro.core.interfaces import AppMessage
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.results import DeliveryLog
from test_checkers_streaming import (
    oracle_agreement,
    oracle_check_all,
    oracle_prefix_order,
)


def _campaign_scale_log(n_messages=2_000, groups=8, group_size=3, seed=0):
    rng = random.Random(seed)
    topology = Topology([group_size] * groups)
    casts = {}
    log = DeliveryLog()
    for i in range(n_messages):
        k = rng.randint(1, groups // 2)
        dest = tuple(sorted(rng.sample(range(groups), k)))
        msg = AppMessage(mid=f"m{i}", sender=rng.randrange(
            groups * group_size), dest_groups=dest)
        casts[msg.mid] = msg
        log.record_cast(msg)
    order = list(casts)
    rng.shuffle(order)
    for pid in topology.processes:
        gid = topology.group_of(pid)
        for mid in order:
            if gid in casts[mid].dest_groups:
                log.record_delivery(pid, casts[mid])
    return topology, log


class TestCheckerScaling:
    def test_same_verdict_at_scale(self):
        topology, log = _campaign_scale_log(n_messages=400)
        assert sum(len(rec.delivery_time) for rec in
                   log.record_map.values()) == log.delivery_count()
        crashes = CrashSchedule.none()
        check_all(log, topology, crashes)
        oracle_check_all(log, topology, crashes)
        check_uniform_prefix_order(log, topology)
        check_uniform_agreement(log, topology, crashes)
        oracle_prefix_order(log, topology)
        oracle_agreement(log, topology, crashes)
