"""White-box tests of Algorithm A1's stage machine.

These reach into the endpoint state (PENDING stages, group clock K,
timestamp proposals) to pin the pseudocode line by line — complementary
to the black-box integration suite.
"""

import heapq

import pytest

from repro.core.interfaces import (
    STAGE_S0,
    STAGE_S1,
    STAGE_S2,
    STAGE_S3,
    AppMessage,
)
from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.runner import build_scenario_system
from repro.campaigns.spec import (
    DestinationSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.core.amcast import Blocker, _Pending
from repro.failure.schedule import CrashSchedule
from repro.net.message import Message
from repro.net.topology import Fixed, LatencyModel
from repro.runtime.builder import SystemSpec, build_system


def _asymmetric_latency():
    """Make group 1 slow so stage transitions are observable mid-run."""
    return LatencyModel(intra=Fixed(0.01), inter=Fixed(10.0))


class TestStageTransitions:
    def test_message_enters_pending_at_s0(self):
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       latency=_asymmetric_latency()),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        # Before any consensus decision: R-Deliver put it at stage s0.
        system.run(until=0.02)
        endpoint = system.endpoints[0]
        assert endpoint.pending[msg.mid].stage == STAGE_S0

    def test_multi_group_message_reaches_s1_after_consensus(self):
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       latency=_asymmetric_latency()),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run(until=1.0)  # group 0 decided; TS still in flight
        endpoint = system.endpoints[0]
        assert endpoint.pending[msg.mid].stage == STAGE_S1

    def test_single_group_message_jumps_to_s3(self):
        """Lines 28-29: second consensus not needed."""
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       latency=_asymmetric_latency()),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0,))
        system.run(until=1.0)
        endpoint = system.endpoints[0]
        # Already delivered — which means it passed through s3.
        assert system.log.sequence(0) == [msg.mid]
        assert endpoint._heard == endpoint._unheard == set()

    def test_noskip_single_group_message_visits_s2(self):
        system = build_system(
            SystemSpec(protocol="a1-noskip", group_sizes=[2, 2],
                       latency=_asymmetric_latency()),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0,))
        seen_stages = set()
        endpoint = system.endpoints[0]

        def watch():
            entry = endpoint.pending.get(msg.mid)
            if entry is not None:
                seen_stages.add(entry.stage)
            if 0 not in system.log.deliveries_of(msg.mid):
                system.sim.schedule(0.005, watch)

        system.sim.schedule(0.005, watch)
        system.run_quiescent()
        assert STAGE_S2 in seen_stages
        assert system.log.sequence(0) == [msg.mid]

    def test_group_clock_jumps_past_decided_timestamps(self):
        """Line 31: K <- max(max ts, K) + 1."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1)
        system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        for pid in range(4):
            assert system.endpoints[pid].k >= 2

    def test_group_clocks_agree_within_group(self):
        """Lemma A.1: members' K sequences are prefix-related; at
        quiescence they are equal."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3]),
                              seed=2)
        for i in range(5):
            system.cast(sender=i % 6, dest_groups=(0, 1))
        system.run_quiescent()
        for gid in (0, 1):
            ks = {system.endpoints[p].k
                  for p in system.topology.members(gid)}
            assert len(ks) == 1


class TestTimestampExchange:
    def test_ts_proposals_buffered_before_stage_s1(self):
        """A TS message may arrive before the local consensus decided
        (the guard of line 33 must not lose it)."""
        # Group 1 is made slow at consensus by crashing nobody but
        # letting group 0's TS arrive instantly relative to group 1's
        # intra steps: use inter latency below intra latency.
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2],
                       latency=LatencyModel(intra=Fixed(5.0),
                                            inter=Fixed(0.1))),
            seed=1)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        # Despite the inverted timing, everything delivered consistently.
        for pid in range(4):
            assert system.log.sequence(pid) == [msg.mid]

    def test_final_timestamp_is_max_of_proposals(self):
        """Stage s1 -> s3/s2 picks the maximum group proposal."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=3)
        # Pre-load group 1's clock with local traffic so its proposal
        # for the probe message is higher than group 0's.
        for _ in range(4):
            system.cast(sender=2, dest_groups=(1,))
        probe = system.cast_at(0.5, 0, (0, 1))
        system.run_quiescent()
        rec = system.meter.record_for(probe.mid)
        assert rec.latency_degree == 2
        # All processes delivered it (same final timestamp everywhere —
        # otherwise prefix order would have tripped in other tests).
        assert len(rec.delivery_time) == 4

    def test_ts_message_introduces_unknown_message(self):
        """Footnote 4: a (TS, m) from another group must create the
        pending entry if the R-MCast copy is still missing."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=1, trace=True)
        # Drop the caster's direct copies into group 1; the TS message
        # from group 0 is then group 1's only way to learn about m.
        system.network.add_delivery_filter(
            lambda m: not (m.kind == "amc.rmc.data" and m.src == 0
                           and m.dst >= 2))
        # The lazy rmcast relay would also recover m eventually; crash
        # the caster so the relay logic (suspicion-driven) kicks in too,
        # but the TS path is faster.
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.sim.call_at(0.5, system.network.process(0).crash)
        system.run_quiescent()
        for pid in (1, 2, 3):
            assert system.log.sequence(pid) == [msg.mid]


def _plant(system, pid, mid, dest_groups, ts, stage):
    """Put a hand-made entry into ``pid``'s PENDING, indexed the way
    the stage machine would have indexed it."""
    endpoint = system.endpoints[pid]
    msg = AppMessage(mid=mid, sender=0, dest_groups=dest_groups)
    system.log.record_cast(msg)
    entry = endpoint.pending[mid] = _Pending(msg=msg, ts=ts, stage=stage)
    if stage == STAGE_S1:
        endpoint._await_proposals(entry)
    elif stage >= STAGE_S2:
        heapq.heappush(endpoint._finals, (ts, mid))
    return entry


def _delivered_before_proposal(endpoint, gid, *mids):
    """Mark ``mids`` as A-Delivered here before group ``gid``'s
    proposal for them arrived: the state in which a (TS, m) copy of an
    unseen rank carries nothing but its sender's clock."""
    for mid in mids:
        endpoint._late_ts[mid] = {gid}


def _ts_copy(endpoint, src, gid, mid, ts, seq):
    """Hand ``endpoint`` one (TS, m) copy as group ``gid``'s ``src``
    would have sent it."""
    endpoint._on_ts(Message(
        src, endpoint.process.pid, "amc.ts",
        {"mid": mid, "ts": ts, "gid": gid,
         "seq": {endpoint.my_gid: seq}}, inter_group=True))


class TestDeliveryGuard:
    """s3 is released against lower bounds on pending finals, and the
    bound a remote clock gives is derived by counting, never by arrival
    order — links promise none (§2.1)."""

    def _blocked_endpoint(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 1]),
                              seed=5)
        endpoint = system.endpoints[0]
        # "held" is final at 5; "open" still lacks group 1's proposal
        # and our own was 2, so it may yet finish below (5, "held").
        _plant(system, 0, "open", (0, 1), ts=2, stage=STAGE_S1)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        # Three messages long delivered here: copies for them carry
        # nothing but their sender's clock.
        _delivered_before_proposal(endpoint, 1, "old-1", "old-2", "old-3")
        endpoint._adelivery_test()
        return system, endpoint

    def test_s1_entry_blocks_by_its_own_proposal_without_a_watermark(self):
        system, endpoint = self._blocked_endpoint()
        assert system.log.sequence(0) == []
        assert endpoint.blocked_on() == Blocker(
            waiting="held", stamp=5, mid="open", stage=STAGE_S1, bound=2,
            group=1, watermark=0)

    def test_watermark_does_not_cross_a_gap(self):
        """The non-FIFO trap: "highest instance seen from group 1"
        would read 10 after the first copy below and release "held"
        while copy 1 — possibly "open" stamped 3 — is still in flight."""
        system, endpoint = self._blocked_endpoint()
        _ts_copy(endpoint, 1, 1, "old-3", ts=10, seq=3)
        _ts_copy(endpoint, 1, 1, "old-2", ts=9, seq=2)
        assert endpoint._awaited[1].watermark == 0
        assert system.log.sequence(0) == []
        assert endpoint.blocked_on().watermark == 0
        # The gap closes: sequence 1..3 is contiguous, every copy of
        # that sender still missing was stamped at instance >= 10.
        _ts_copy(endpoint, 1, 1, "old-1", ts=8, seq=1)
        assert endpoint._awaited[1].watermark == 10
        assert system.log.sequence(0) == ["held"]
        assert endpoint.pending["open"].stage == STAGE_S1
        assert endpoint.blocked_on() is None
        assert endpoint._late_ts == {}  # each rank's first copy cleared it

    def test_duplicate_copies_do_not_advance_the_count(self):
        system, endpoint = self._blocked_endpoint()
        for _ in range(3):
            _ts_copy(endpoint, 1, 1, "old-1", ts=4, seq=1)
        assert endpoint._awaited[1].stream.seq == 1
        assert endpoint._awaited[1].watermark == 4
        assert system.log.sequence(0) == []  # 4 < 5: still blocked

    def test_gap_in_one_members_copies_is_closed_by_another_members(self):
        """All members of a group number their copies identically
        (agreement), so rank 2 from member B fills the hole between
        member A's ranks 1 and 3."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 2]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "open", (0, 1), ts=2, stage=STAGE_S1)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        _delivered_before_proposal(endpoint, 1, "old-1", "old-2", "old-3")
        _ts_copy(endpoint, 1, 1, "old-1", ts=3, seq=1)
        _ts_copy(endpoint, 1, 1, "old-3", ts=10, seq=3)  # A's rank 2 lost
        assert endpoint._awaited[1].watermark == 3
        assert system.log.sequence(0) == []
        _ts_copy(endpoint, 2, 1, "old-2", ts=9, seq=2)   # B's copy of it
        assert endpoint._awaited[1].watermark == 10
        assert endpoint._awaited[1].stream.ahead == {}
        assert system.log.sequence(0) == ["held"]

    def test_repeated_rank_does_not_advance_the_stream(self):
        """The second member's copy of a rank already counted is a
        duplicate, not the next rank."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 2]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "open", (0, 1), ts=2, stage=STAGE_S1)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        _delivered_before_proposal(endpoint, 1, "old-1")
        _ts_copy(endpoint, 1, 1, "old-1", ts=4, seq=1)
        _ts_copy(endpoint, 2, 1, "old-1", ts=4, seq=1)
        assert endpoint._awaited[1].stream.seq == 1
        assert endpoint._awaited[1].watermark == 4
        assert system.log.sequence(0) == []  # 4 < 5: still blocked

    def test_merged_stream_dominates_per_member_streams_under_loss(self):
        """On a recorded lossy run: every member's copy of a rank
        carries the same (m, instance), and after every copy the
        group's watermark is at least what the best single member's
        gap-free prefix would have given — and sometimes more, when one
        member's lost copy was covered by another's."""
        lossy = AdversarySpec(name="streams-lossy", injectors=tuple(
            InjectorSpec(kind=kind,
                         params=(("probability", p), ("until", 40.0)))
            for kind, p in (("drop", 0.10), ("duplicate", 0.05))))
        spec = ScenarioSpec(
            name="streams-lossy", protocol="a1", group_sizes=(3, 3, 3),
            workload=WorkloadSpec(
                kind="poisson", rate=5.0, duration=40.0,
                destinations=DestinationSpec(kind="uniform-k", k=2)),
            transport="reliable", checkers=("properties",))
        system, _, _ = build_scenario_system(spec, 3, lossy)
        ranks = {}      # (receiver, group, rank) -> {(mid, instance)}
        gained = []

        def tap(endpoint):
            handle = endpoint.process._handlers["amc.ts"]
            members = {}  # (group, sender) -> [rank, instance, held]

            def on_ts(netmsg):
                payload = netmsg.payload
                gid, instance = payload["gid"], payload["ts"]
                rank = payload["seq"][endpoint.my_gid]
                ranks.setdefault(
                    (endpoint.process.pid, gid, rank), set()).add(
                        (payload["mid"], instance))
                # One gap-free prefix per sender, as before the merge.
                state = members.setdefault((gid, netmsg.src), [0, 0, {}])
                state[2][rank] = instance
                while state[0] + 1 in state[2]:
                    state[0] += 1
                    state[1] = state[2].pop(state[0])
                handle(netmsg)
                best_member = max(instance for (group, _), (_, instance, _)
                                  in members.items() if group == gid)
                merged = endpoint._awaited[gid].watermark
                assert merged >= best_member
                gained.append(merged > best_member)

            endpoint.process._handlers["amc.ts"] = on_ts

        for endpoint in system.endpoints.values():
            tap(endpoint)
        system.run_quiescent()
        assert len(gained) > 1000
        assert any(gained)
        assert all(len(copies) == 1 for copies in ranks.values())

    def test_equal_watermark_falls_back_to_message_ids(self):
        """Bound (5, "open") against (5, "held"): "open" > "held", so
        whatever "open" finishes at sorts after "held"."""
        system, endpoint = self._blocked_endpoint()
        _ts_copy(endpoint, 1, 1, "old-1", ts=5, seq=1)
        assert system.log.sequence(0) == ["held"]

    def test_equal_watermark_blocks_a_smaller_message_id(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "a-open", (0, 1), ts=2, stage=STAGE_S1)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        _delivered_before_proposal(endpoint, 1, "old-1")
        _ts_copy(endpoint, 1, 1, "old-1", ts=5, seq=1)
        assert system.log.sequence(0) == []  # "a-open" may finish at 5
        assert endpoint.blocked_on().bound == 5

    def test_s0_entry_never_blocks(self):
        """Its proposal will be an instance >= K, and K > ts of every
        s3 entry (line 31)."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "a-fresh", (0, 1), ts=1, stage=STAGE_S0)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        endpoint._adelivery_test()
        assert system.log.sequence(0) == ["held"]

    def test_s2_entry_blocks_by_its_final_timestamp(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "catching-up", (0, 1), ts=4, stage=STAGE_S2)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        endpoint._adelivery_test()
        assert system.log.sequence(0) == []
        assert endpoint.blocked_on() == Blocker(
            waiting="held", stamp=5, mid="catching-up", stage=STAGE_S2,
            bound=4)

    def test_best_missing_group_bounds_a_three_group_entry(self):
        """max over the missing groups' watermarks: one far-ahead clock
        is enough, whichever group the entry was filed under."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1, 1, 1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _delivered_before_proposal(endpoint, 1, "old-1")
        _delivered_before_proposal(endpoint, 2, "old-2")
        _ts_copy(endpoint, 1, 1, "old-1", ts=3, seq=1)  # group 1 at 3
        _plant(system, 0, "open", (0, 1, 2), ts=2, stage=STAGE_S1)
        _plant(system, 0, "held", (0, 1), ts=5, stage=STAGE_S3)
        endpoint._adelivery_test()
        assert endpoint.blocked_on().group == 1
        _ts_copy(endpoint, 2, 2, "old-2", ts=7, seq=1)  # group 2 at 7
        assert system.log.sequence(0) == ["held"]
        assert endpoint.pending["open"].awaits == 2

    def test_no_handler_is_reported_before_state_is_touched(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "held", (0,), ts=5, stage=STAGE_S3)
        endpoint._handler = None
        with pytest.raises(RuntimeError, match="no A-Deliver handler"):
            endpoint._adelivery_test()
        assert "held" in endpoint.pending
        assert system.log.sequence(0) == []
        assert endpoint._unheard == set()


class TestNoProposalOutlivesItsMessage:
    """A (TS, m) copy from a second member of a group that lands after
    m was A-Delivered must not re-create ``ts_proposals[m]``."""

    @staticmethod
    def _quiescent_endpoints(spec, adversary=None):
        system, _, _ = build_scenario_system(spec, 3, adversary)
        system.run_quiescent()
        assert system.log.delivery_count() > 0
        return system.endpoints.values()

    _CASTS = WorkloadSpec(
        kind="poisson", rate=0.05, duration=400.0,
        destinations=DestinationSpec(kind="uniform-k", k=2))

    def test_jittered_run_leaves_no_zombies(self):
        spec = ScenarioSpec(
            name="zombies-wan", protocol="a1", group_sizes=(3, 3, 3),
            latency=LatencySpec.wan(), workload=self._CASTS,
            checkers=("properties",))
        for endpoint in self._quiescent_endpoints(spec):
            assert endpoint.ts_proposals == {}
            assert endpoint.pending == {}

    def test_lossy_run_leaves_no_zombies_and_no_holes(self):
        lossy = AdversarySpec(name="zombies-lossy", injectors=tuple(
            InjectorSpec(kind=kind,
                         params=(("probability", p), ("until", 40.0)))
            for kind, p in (("drop", 0.10), ("duplicate", 0.05))))
        spec = ScenarioSpec(
            name="zombies-lossy", protocol="a1", group_sizes=(3, 3, 3),
            workload=WorkloadSpec(
                kind="poisson", rate=5.0, duration=40.0,
                destinations=DestinationSpec(kind="uniform-k", k=2)),
            transport="reliable", checkers=("properties",))
        for endpoint in self._quiescent_endpoints(spec, lossy):
            assert endpoint.ts_proposals == {}
            # Late copies fed the count too: no stream is left waiting
            # behind a hole a skipped copy would have punched.
            for group in endpoint._awaited.values():
                assert group.stream.ahead == {}


class TestDeliveryRule:
    def test_smaller_timestamp_blocks_larger(self):
        """Line 4: a pending message with a smaller (ts, id) gates
        delivery even if a later message reached s3 first."""
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[2, 2, 2],
                       latency=LatencyModel(intra=Fixed(0.01),
                                            inter=Fixed(10.0))),
            seed=4)
        slow = system.cast(sender=0, dest_groups=(0, 2))   # 10ms hops
        fast = system.cast(sender=0, dest_groups=(0,))     # local
        system.run_quiescent()
        seq = system.log.sequence(0)
        assert set(seq) == {slow.mid, fast.mid}
        # Whatever the order, both groups see consistent projections —
        # and the sequencing respected (ts, id), checked indirectly by
        # the prefix checker used across the suite.

    def test_tie_broken_by_message_id(self):
        """(ts, id) ordering: equal timestamps fall back to ids.

        Ties cannot be provoked from the public API with a single
        proposer, so this drives the delivery test directly: two s3
        entries with the same timestamp must come out in id order.
        """
        system = build_system(SystemSpec(protocol="a1", group_sizes=[1]),
                              seed=5)
        endpoint = system.endpoints[0]
        _plant(system, 0, "zz-later", (0,), ts=7, stage=STAGE_S3)
        _plant(system, 0, "aa-early", (0,), ts=7, stage=STAGE_S3)
        endpoint._adelivery_test()
        seq = system.log.sequence(0)
        assert seq == ["aa-early", "zz-later"]

    def test_duplicate_rmcast_copy_is_not_reprocessed(self):
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=6)
        copies = []
        system.network.add_delivery_filter(
            lambda msg: (msg.kind == "amc.rmc.data" and msg.dst == 1
                         and copies.append(msg)) or True)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        system.run_quiescent()
        endpoint = system.endpoints[1]
        assert system.log.sequence(1) == [msg.mid]
        system.network.process(1).handle(copies[0])  # the same copy again
        assert not system.sim.pending_events
        assert endpoint.pending == {}
        assert endpoint._heard == endpoint._unheard == set()
        assert system.log.sequence(1) == [msg.mid]

    def test_rdeliver_after_adeliver_is_not_reprocessed(self):
        """p1 learns m from its group's decision (line 30) and delivers
        it; the R-Deliver that arrives afterwards is only struck off."""
        system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                              seed=6)
        system.network.add_delay_hook(
            lambda copy, delay: delay + 5.0
            if copy.kind == "amc.rmc.data" and copy.dst == 1 else delay)
        msg = system.cast(sender=0, dest_groups=(0, 1))
        endpoint = system.endpoints[1]
        unheard = []
        while system.sim.pending_events:
            system.run(max_events=1)
            endpoint.inv()
            unheard.append(msg.mid in endpoint._unheard)
        assert any(unheard)
        assert endpoint._unheard == set()
        assert endpoint.pending == {}
        assert system.log.sequence(1) == [msg.mid]


class TestCastAfterDelivery:
    """The ordering fact the store's epoch fencing leans on: a message
    cast to g after every correct member of g A-Delivered m is delivered
    after m at *every* common destination — g's clock has passed m's
    final timestamp, so whatever g proposes for the newcomer exceeds it,
    however far behind the other destinations still are."""

    G, H, K = 0, 1, 2

    def _system(self, seed, crashes=None):
        # g's copies crawl to h and k, and g's clock runs ahead: g
        # delivers m long before the others can.
        latency = LatencyModel(
            intra=Fixed(0.001), inter=Fixed(1.0),
            pairwise_inter={(self.G, self.H): Fixed(10.0),
                            (self.G, self.K): Fixed(10.0)})
        system = build_system(
            SystemSpec(protocol="a1", group_sizes=[3, 3, 3, 3],
                       latency=latency),
            seed=seed, crashes=crashes)
        for i in range(15):
            system.cast_at(0.1 * i, sender=0, dest_groups=(self.G,))
        rng = system.rng.stream("background")
        for i in range(20):
            system.cast_at(2.0 + rng.random() * 8.0,
                           sender=rng.randrange(12),
                           dest_groups=rng.sample(range(4), 2))
        return system

    def _all_correct_delivered(self, system, mid, gid):
        deliverers = system.log.deliveries_of(mid)
        return all(pid in deliverers
                   for pid in system.topology.members(gid)
                   if not system.network.process(pid).crashed)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("later_dest", [(0, 1), (0, 1, 2), (0, 2)])
    @pytest.mark.parametrize("crash", [False, True])
    def test_ordered_after_at_every_common_destination(
            self, seed, later_dest, crash):
        crashes = CrashSchedule({1: 5.5}) if crash else None
        system = self._system(seed, crashes)
        # m is cast from a third group, so g and h hear of it together
        # and only g's slow timestamp holds h back.
        m = system.cast_at(5.0, sender=9, dest_groups=(self.G, self.H))
        while not self._all_correct_delivered(system, m.mid, self.G):
            assert system.sim.pending_events
            system.run(max_events=1)
        laggards = [pid for pid in system.topology.members(self.H)
                    if pid not in system.log.deliveries_of(m.mid)]
        assert laggards, "the scenario must leave h behind g"
        later = system.cast(sender=9, dest_groups=later_dest)
        system.run_quiescent()

        common = set(later_dest) & {self.G, self.H}
        checked = 0
        for gid in common:
            for pid in system.topology.members(gid):
                seq = system.log.sequence(pid)
                if later.mid in seq:
                    assert seq.index(m.mid) < seq.index(later.mid), pid
                    checked += 1
        assert checked >= len(common) * 2
