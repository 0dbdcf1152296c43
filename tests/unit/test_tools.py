"""Unit tests for the timeline/inspection tools."""

import pytest

from repro.net.trace import MessageTrace
from repro.runtime.builder import build_system
from repro.tools.timeline import (
    lane_summary,
    render_hop_diagram,
    render_timeline,
    render_waits,
)
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


@pytest.fixture(scope="module")
def traced_run():
    system = build_system(protocol="a1", group_sizes=[2, 2], seed=1,
                          trace=True)
    msg = system.cast(sender=0, dest_groups=(0, 1))
    system.run_quiescent()
    return system, msg


class TestRenderTimeline:
    def test_contains_sends_and_receives(self, traced_run):
        system, _ = traced_run
        text = render_timeline(system.network.trace)
        assert ">>" in text and "<<" in text
        assert "inter" in text and "intra" in text

    def test_kind_filter(self, traced_run):
        system, _ = traced_run
        text = render_timeline(system.network.trace,
                               kinds_prefix="amc.ts")
        assert "amc.ts" in text
        assert "rmc.data" not in text

    def test_time_window(self, traced_run):
        system, _ = traced_run
        text = render_timeline(system.network.trace, start=1e9)
        assert text == "(no events in range)"

    def test_limit_caps_output(self, traced_run):
        system, _ = traced_run
        text = render_timeline(system.network.trace, limit=3)
        assert "shown)" in text
        # 3 event lines + the truncation notice.
        assert len(text.splitlines()) == 4

    def test_requires_enabled_trace(self):
        with pytest.raises(ValueError):
            render_timeline(MessageTrace(enabled=False))


class TestHopDiagram:
    def test_follows_one_message(self, traced_run):
        system, msg = traced_run
        text = render_hop_diagram(system.network.trace, msg.mid)
        assert msg.mid not in ("",)
        assert ">>" in text
        # The R-MCast and the TS exchange both mention the message.
        assert "rmc.data" in text and "amc.ts" in text

    def test_unknown_needle(self, traced_run):
        system, _ = traced_run
        assert "no events mention" in render_hop_diagram(
            system.network.trace, "no-such-mid")

    def test_requires_enabled_trace(self):
        with pytest.raises(ValueError):
            render_hop_diagram(MessageTrace(enabled=False), "x")


class TestLaneSummary:
    def test_per_process_rows(self, traced_run):
        system, _ = traced_run
        text = lane_summary(system.network.trace)
        for pid in range(4):
            assert f"p{pid}" in text

    def test_counts_are_consistent(self, traced_run):
        system, _ = traced_run
        text = lane_summary(system.network.trace)
        rows = text.splitlines()[1:]
        sent = sum(int(r.split()[1]) for r in rows)
        assert sent == len([e for e in system.network.trace.events
                            if e.event == "send"])

    def test_requires_enabled_trace(self):
        with pytest.raises(ValueError):
            lane_summary(MessageTrace(enabled=False))


class TestRenderWaits:
    def test_names_blocker_group_and_watermark_mid_run(self):
        system = build_system(protocol="a1", group_sizes=[3, 3, 3], seed=42)
        schedule_workload(system, poisson_workload(
            system.topology, system.rng.stream("wl"), rate=150.0,
            duration=3.0, destinations=uniform_k_groups(2)))
        system.run(until=2.5)
        text = render_waits(system.endpoints)
        assert len(text.splitlines()) == 9
        assert "waits on" in text and "proposal is missing" in text
        assert "clock is known up to" in text
        system.run_quiescent()
        drained = render_waits(system.endpoints)
        assert drained.count("nothing waits in s3") == 9

    def test_protocols_without_the_hook_are_skipped(self):
        system = build_system(protocol="a2", group_sizes=[2, 2], seed=1)
        assert render_waits(system.endpoints) == \
            "(no endpoint reports waits)"
