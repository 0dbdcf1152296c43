"""One-pass checkers vs the implementations they replaced.

The prefix-order and agreement checks were rewritten from pairwise
O(p²·m) scans into near-linear folds over the deliveries, and ``check_all`` from
four per-property passes into one pass over the log's indexes.  This
suite keeps the *old* implementations alive (below, verbatim modulo
naming) as oracles and asserts the new code returns identical verdicts
on adversarial logs — conflicting prefixes, partial delivery, duplicate
delivery, gaps, cross-group inversions, crashed senders and a seeded
fuzz of mutated random logs — and, for ``check_all``, the identical
violation: same message, same ``context``.  A last class checks that
the finished run is enough to decide the safety properties: whatever a
checker fed delivery by delivery would have caught mid-run, the
post-hoc check still catches.
"""

import random

import pytest

from repro.checkers.properties import (
    PropertyViolation,
    _PrefixOrderTracker,
    _index_holds,
    check_all,
    check_uniform_agreement,
    check_uniform_integrity,
    check_uniform_prefix_order,
)
from repro.core.interfaces import AppMessage
from repro.failure.schedule import CrashSchedule
from repro.net.topology import Topology
from repro.runtime.results import DeliveryLog


# ----------------------------------------------------------------------
# The pre-PR quadratic implementations, kept as oracles
# ----------------------------------------------------------------------
def _oracle_project(sequence, cast, topology, p, q):
    gp, gq = topology.group_of(p), topology.group_of(q)
    return [
        mid for mid in sequence
        if gp in cast[mid].dest_groups and gq in cast[mid].dest_groups
    ]


def _oracle_is_prefix(a, b):
    return len(a) <= len(b) and list(b[: len(a)]) == list(a)


def oracle_prefix_order(log, topology):
    """The seed commit's pairwise prefix-order check, verbatim."""
    cast = log.cast_map
    pids = log.processes()
    for i, p in enumerate(pids):
        for q in pids[i + 1:]:
            sp = _oracle_project(log.sequence(p), cast, topology, p, q)
            sq = _oracle_project(log.sequence(q), cast, topology, p, q)
            if not _oracle_is_prefix(sp, sq) and \
                    not _oracle_is_prefix(sq, sp):
                raise PropertyViolation(
                    f"prefix order violated between {p} and {q}: "
                    f"{sp} vs {sq}"
                )


def oracle_agreement(log, topology, crashes):
    """The seed commit's uniform agreement (per-mid sequence scans)."""
    for mid, msg in log.cast_map.items():
        delivered_by = {
            pid for pid in log.processes()
            if any(m.mid == mid for m in log.sequences.get(pid, []))
        }
        if not delivered_by:
            continue
        for gid in msg.dest_groups:
            for pid in topology.members(gid):
                if crashes.is_faulty(pid):
                    continue
                if pid not in delivered_by:
                    raise PropertyViolation(
                        f"correct addressee {pid} never delivered {mid}"
                    )


def _oracle_integrity(log, topology):
    cast = log.cast_map
    for pid in log.processes():
        gid = topology.group_of(pid)
        seen = set()
        for msg in log.sequences.get(pid, []):
            if msg.mid in seen:
                raise PropertyViolation(
                    f"process {pid} delivered {msg.mid} more than once",
                    property="uniform_integrity", kind="duplicate",
                    pid=pid, mid=msg.mid,
                )
            seen.add(msg.mid)
            if msg.mid not in cast:
                raise PropertyViolation(
                    f"process {pid} delivered {msg.mid}, "
                    f"which was never cast",
                    property="uniform_integrity", kind="uncast",
                    pid=pid, mid=msg.mid,
                )
            if gid not in cast[msg.mid].dest_groups:
                raise PropertyViolation(
                    f"process {pid} (group {gid}) "
                    f"delivered {msg.mid} addressed to "
                    f"{cast[msg.mid].dest_groups}",
                    property="uniform_integrity", kind="not_addressed",
                    pid=pid, mid=msg.mid,
                )


def _oracle_validity(log, topology, crashes):
    for mid, msg in log.cast_map.items():
        if crashes.is_faulty(msg.sender):
            continue
        _oracle_require_all_correct_addressees(log, topology, crashes, msg)


def _oracle_agreement_indexed(log, topology, crashes):
    for mid, msg in log.cast_map.items():
        if not log.deliveries_of(mid):
            continue
        _oracle_require_all_correct_addressees(log, topology, crashes, msg)


def _oracle_require_all_correct_addressees(log, topology, crashes, msg):
    delivered_by = set(log.deliveries_of(msg.mid))
    for gid in msg.dest_groups:
        for pid in topology.members(gid):
            if crashes.is_faulty(pid):
                continue
            if pid not in delivered_by:
                raise PropertyViolation(
                    f"correct addressee {pid} never delivered {msg.mid} "
                    f"(delivered by {sorted(delivered_by)})",
                    property="agreement_or_validity", kind="missing",
                    pid=pid, mid=msg.mid,
                    delivered_by=sorted(delivered_by),
                )


def _oracle_prefix_streaming(log, topology):
    tracker = _PrefixOrderTracker(topology)
    for pid in log.processes():
        for msg in log.sequences.get(pid, []):
            tracker.observe(pid, msg)


def oracle_check_all(log, topology, crashes=None):
    """The four-pass ``check_all`` that preceded the one-pass version."""
    crashes = crashes or CrashSchedule.none()
    _oracle_integrity(log, topology)
    _oracle_validity(log, topology, crashes)
    _oracle_agreement_indexed(log, topology, crashes)
    _oracle_prefix_streaming(log, topology)


def _verdict(check, *args):
    """None when the check passes, else the violation type."""
    try:
        check(*args)
        return None
    except PropertyViolation:
        return PropertyViolation


def _violation(check, *args):
    """None when the check passes, else (message, context)."""
    try:
        check(*args)
        return None
    except PropertyViolation as exc:
        return str(exc), exc.context


# ----------------------------------------------------------------------
# Log construction helpers
# ----------------------------------------------------------------------
def _msg(mid, sender=0, dest=(0, 1)):
    return AppMessage(mid=mid, sender=sender, dest_groups=dest)


def _log_with(casts, deliveries):
    log = DeliveryLog()
    for msg in casts.values():
        log.record_cast(msg)
    for pid, mids in deliveries.items():
        for mid in mids:
            log.record_delivery(pid, casts[mid])
    return log


TOPO = Topology([2, 2])
TOPO3 = Topology([2, 2, 2])


class TestAdversarialLogsMatchOracle:
    """Hand-built violations: streaming verdict == quadratic verdict."""

    CASES = {
        "clean_identical": (
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 1: ["a", "b"], 2: ["a", "b"], 3: ["a", "b"]},
        ),
        "true_prefix": (
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 2: ["a"]},
        ),
        "conflicting_prefixes_same_group": (
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 1: ["b", "a"]},
        ),
        "conflicting_prefixes_cross_group": (
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 2: ["b", "a"]},
        ),
        "gap_in_projection": (
            # p0 delivers a before b; p2 delivers b but never a.
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 2: ["b"]},
        ),
        "partial_delivery": (
            {"a": _msg("a")},
            {0: ["a"], 1: ["a"], 2: ["a"]},  # 3 never delivers
        ),
        "duplicate_delivery": (
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "a", "b"], 2: ["a", "b"]},
        ),
        "disjoint_projections_fine": (
            {"a": _msg("a", dest=(0,)), "b": _msg("b", dest=(1,)),
             "c": _msg("c", dest=(0, 1))},
            {0: ["a", "c"], 2: ["b", "c"]},
        ),
        "three_group_inversion": (
            {"x": AppMessage(mid="x", sender=0, dest_groups=(0, 1, 2)),
             "y": AppMessage(mid="y", sender=2, dest_groups=(0, 1, 2))},
            {0: ["x", "y"], 2: ["x", "y"], 4: ["y", "x"]},
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_prefix_verdicts_identical(self, name):
        casts, deliveries = self.CASES[name]
        topology = TOPO3 if name == "three_group_inversion" else TOPO
        log = _log_with(casts, deliveries)
        assert _verdict(check_uniform_prefix_order, log, topology) == \
            _verdict(oracle_prefix_order, log, topology), name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agreement_verdicts_identical(self, name):
        casts, deliveries = self.CASES[name]
        topology = TOPO3 if name == "three_group_inversion" else TOPO
        log = _log_with(casts, deliveries)
        crashes = CrashSchedule.none()
        assert _verdict(check_uniform_agreement, log, topology, crashes) \
            == _verdict(oracle_agreement, log, topology, crashes), name


class TestFuzzedLogsMatchOracle:
    """Seeded random logs, mutated four ways, must agree with oracles."""

    def _random_log(self, rng, topology, n_messages, complete=False):
        pids = topology.processes
        casts = {}
        for i in range(n_messages):
            k = rng.randint(1, len(topology.group_ids))
            dest = tuple(sorted(rng.sample(list(topology.group_ids), k)))
            casts[f"m{i}"] = AppMessage(
                mid=f"m{i}", sender=rng.choice(pids), dest_groups=dest)
        # A consistent global order, delivered as prefixes per process.
        order = list(casts)
        rng.shuffle(order)
        deliveries = {}
        for pid in pids:
            gid = topology.group_of(pid)
            addressed = [mid for mid in order
                         if gid in casts[mid].dest_groups]
            cut = len(addressed) if complete else rng.randint(
                0, len(addressed))
            deliveries[pid] = addressed[:cut]
        return casts, deliveries

    def _mutate(self, rng, deliveries, how):
        victims = [pid for pid, seq in deliveries.items() if len(seq) >= 2]
        if not victims:
            return deliveries
        pid = rng.choice(victims)
        seq = list(deliveries[pid])
        if how == "swap":              # conflicting prefix order
            i = rng.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        elif how == "drop":            # gap in the middle
            del seq[rng.randrange(len(seq) - 1)]
        elif how == "duplicate":       # delivered more than once
            seq.append(seq[rng.randrange(len(seq))])
        out = dict(deliveries)
        out[pid] = seq
        return out

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mutation",
                             ["none", "swap", "drop", "duplicate"])
    def test_verdicts_identical(self, seed, mutation):
        rng = random.Random(seed * 101 + hash(mutation) % 1000)
        topology = TOPO3
        casts, deliveries = self._random_log(rng, topology, n_messages=14)
        if mutation != "none":
            deliveries = self._mutate(rng, deliveries, mutation)
        log = _log_with(casts, deliveries)
        crashes = CrashSchedule.none()
        assert _verdict(check_uniform_prefix_order, log, topology) == \
            _verdict(oracle_prefix_order, log, topology)
        assert _verdict(check_uniform_agreement, log, topology, crashes) \
            == _verdict(oracle_agreement, log, topology, crashes)


class TestCheckAllMatchesFourPassOracle:
    """One-pass ``check_all`` raises the four-pass oracle's violation.

    Several cases break two properties at once, so the order the oracle
    reports them in — integrity, validity, agreement, prefix order — is
    what is under test, not just the verdict.
    """

    GHOST = _msg("ghost")
    ONLY_G0 = _msg("g0-only", dest=(0,))

    CASES = {
        "uncast": (
            {"a": _msg("a")}, {0: ["a", "ghost"]}, {}),
        "stray": (
            {"a": _msg("a"), "g0-only": ONLY_G0},
            {0: ["a", "g0-only"], 2: ["a", "g0-only"]}, {}),
        "prefix_then_duplicate": (
            # p0/p1 invert, but p3's duplicate is integrity: reported first.
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 1: ["b", "a"], 2: ["a", "b"],
             3: ["a", "b", "b"]}, {}),
        "prefix_then_missing": (
            # Cross-group inversion, and p3 never delivers: completion first.
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 1: ["a", "b"], 2: ["b", "a"]}, {}),
        "agreement_before_validity_in_cast_order": (
            # a (crashed sender) misses p1 first in cast order; b (correct
            # sender) misses p3: validity's b is reported, not a.
            {"a": _msg("a", sender=0), "b": _msg("b", sender=1)},
            {0: ["a", "b"], 2: ["a", "b"]}, {0: 5.0}),
        "cross_group_inversion": (
            # Complete and consistent inside each group: only the
            # group-pair merge can see it.
            {"a": _msg("a"), "b": _msg("b")},
            {0: ["a", "b"], 1: ["a", "b"], 2: ["b", "a"], 3: ["b", "a"]},
            {}),
        "cross_group_inversion_projected": (
            # g1's own message c sits between the inverted pair.
            {"a": _msg("a"), "b": _msg("b"), "c": _msg("c", dest=(1,))},
            {0: ["a", "b"], 1: ["a", "b"], 2: ["b", "c", "a"],
             3: ["b", "c", "a"]}, {}),
        "faulty_sender_undelivered": (
            {"a": _msg("a", sender=0), "b": _msg("b", sender=1)},
            {1: ["b"], 2: ["b"], 3: ["b"]}, {0: 5.0}),
        "faulty_addressee_missing": (
            {"a": _msg("a", sender=1)},
            {0: ["a"], 1: ["a"], 2: ["a"]}, {3: 5.0}),
        "clean": (
            {"a": _msg("a"), "b": _msg("b", dest=(1,))},
            {0: ["a"], 1: ["a"], 2: ["a", "b"], 3: ["a", "b"]}, {}),
        "clean_projected": (
            {"a": _msg("a"), "b": _msg("b"), "c": _msg("c", dest=(1,))},
            {0: ["a", "b"], 1: ["a", "b"], 2: ["a", "c", "b"],
             3: ["a", "c", "b"]}, {}),
    }

    @staticmethod
    def _log(casts, deliveries):
        known = dict(casts, ghost=TestCheckAllMatchesFourPassOracle.GHOST)
        log = DeliveryLog()
        for msg in casts.values():
            log.record_cast(msg)
        for pid, mids in deliveries.items():
            for mid in mids:
                log.record_delivery(pid, known[mid])
        return log

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_identical_violation(self, name):
        casts, deliveries, crashed = self.CASES[name]
        log = self._log(casts, deliveries)
        crashes = CrashSchedule(crashed)
        expected = _violation(oracle_check_all, log, TOPO, crashes)
        assert _violation(check_all, log, TOPO, crashes) == expected
        assert (expected is None) == name.startswith(("clean", "faulty"))

    @pytest.mark.parametrize(
        "name", sorted(TestAdversarialLogsMatchOracle.CASES))
    def test_adversarial_cases(self, name):
        casts, deliveries = TestAdversarialLogsMatchOracle.CASES[name]
        topology = TOPO3 if name == "three_group_inversion" else TOPO
        log = _log_with(casts, deliveries)
        assert _violation(check_all, log, topology) == \
            _violation(oracle_check_all, log, topology), name

    @pytest.mark.parametrize("first", ["held", "missing"])
    def test_a_shared_map_is_judged_per_destination_tuple(self, first):
        """``b`` (to g0) and ``a`` (to g0 and g1) end on one delivery
        map, {p0, p1}: it holds for ``b``, and ``a`` misses g1.  The map
        passing for ``b`` must not pass it for ``a``, in either order."""
        held, missing = _msg("b", dest=(0,)), _msg("a")
        casts = [held, missing] if first == "held" else [missing, held]
        log = DeliveryLog()
        for msg in casts:
            log.record_cast(msg)
        for pid in (0, 1):
            for msg in casts:
                log.record_delivery(pid, msg)
        records = log.record_map
        assert records["a"].delivery_time is records["b"].delivery_time
        crashes = CrashSchedule.none()
        assert not _index_holds(log, TOPO, crashes)
        expected = _violation(oracle_check_all, log, TOPO, crashes)
        assert expected is not None and "never delivered a" in expected[0]
        assert _violation(check_all, log, TOPO, crashes) == expected

    MUTATIONS = ["swap", "drop", "duplicate", "ghost", "stray",
                 "swap_group"]

    def _mutate(self, rng, casts, deliveries, how):
        pid = rng.choice(sorted(deliveries))
        seq = list(deliveries[pid])
        if how == "swap_group":        # the whole group inverts a pair
            members = TOPO3.members(TOPO3.group_of(pid))
            out = dict(deliveries)
            if len(seq) >= 2:
                i = rng.randrange(len(seq) - 1)
                for member in members:
                    swapped = list(out[member])
                    if len(swapped) > i + 1:
                        swapped[i], swapped[i + 1] = \
                            swapped[i + 1], swapped[i]
                    out[member] = swapped
            return out
        if how == "ghost":
            seq.insert(rng.randint(0, len(seq)), "ghost")
        elif how == "stray":
            gid = TOPO3.group_of(pid)
            strays = [mid for mid, m in casts.items()
                      if gid not in m.dest_groups]
            if strays:
                seq.insert(rng.randint(0, len(seq)), rng.choice(strays))
        else:
            return TestFuzzedLogsMatchOracle()._mutate(rng, deliveries, how)
        out = dict(deliveries)
        out[pid] = seq
        return out

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("mutations", [0, 1, 2])
    def test_fuzzed_with_crashes(self, seed, mutations):
        rng = random.Random(seed * 7919 + mutations)
        # Odd seeds deliver everything, so only the mutations break it;
        # every mutation kind leads at two odd seeds.
        casts, deliveries = TestFuzzedLogsMatchOracle()._random_log(
            rng, TOPO3, n_messages=14, complete=bool(seed % 2))
        for i in range(mutations):
            how = self.MUTATIONS[(seed // 2 + i) % len(self.MUTATIONS)]
            deliveries = self._mutate(rng, casts, deliveries, how)
        # At most one crash per group; casts from those pids are faulty.
        crashes = CrashSchedule({
            rng.choice(TOPO3.members(gid)): rng.uniform(0.0, 10.0)
            for gid in TOPO3.group_ids if rng.random() < 0.7})
        log = self._log(casts, deliveries)
        assert _violation(check_all, log, TOPO3, crashes) == \
            _violation(oracle_check_all, log, TOPO3, crashes)


class TestFinishedRunDecidesSafety:
    """A safety violation on any prefix of the run stays on the whole run.

    Delivery sequences only grow, so a duplicate, an uncast delivery or
    two conflicting projections seen part-way through cannot be undone by
    later deliveries.  Each adversarial log is replayed in round-robin
    order across processes (the interleaving that most often shuffles
    which process delivers first), and every prefix is checked.
    """

    @staticmethod
    def _round_robin(deliveries):
        order = []
        cursors = {pid: 0 for pid in deliveries}
        progressed = True
        while progressed:
            progressed = False
            for pid in sorted(cursors):
                i = cursors[pid]
                if i < len(deliveries[pid]):
                    order.append((pid, deliveries[pid][i]))
                    cursors[pid] = i + 1
                    progressed = True
        return order

    @staticmethod
    def _prefix_log(casts, order, k):
        log = DeliveryLog()
        for msg in casts.values():
            log.record_cast(msg)
        for pid, mid in order[:k]:
            log.record_delivery(pid, casts[mid])
        return log

    @pytest.mark.parametrize(
        "name", sorted(TestAdversarialLogsMatchOracle.CASES))
    def test_prefix_violations_survive_to_the_end(self, name):
        casts, deliveries = TestAdversarialLogsMatchOracle.CASES[name]
        topology = TOPO3 if name == "three_group_inversion" else TOPO
        order = self._round_robin(deliveries)
        full = self._prefix_log(casts, order, len(order))
        # The interleaving does not change the finished run's verdict.
        assert _violation(check_all, full, topology) == \
            _violation(check_all, _log_with(casts, deliveries), topology)
        for check in (check_uniform_integrity, check_uniform_prefix_order):
            final = _verdict(check, full, topology)
            for k in range(len(order) + 1):
                if _verdict(check, self._prefix_log(casts, order, k),
                            topology) is not None:
                    assert final is PropertyViolation, (name, check, k)
                    assert _verdict(check_all, full, topology) \
                        is PropertyViolation, (name, k)
