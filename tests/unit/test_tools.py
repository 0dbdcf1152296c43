"""Unit tests for the timeline/inspection tools."""

import sys

import pytest

from repro.net.trace import MessageTrace
from repro.runtime.builder import SystemSpec, build_system
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
    system = build_system(SystemSpec(protocol="a1", group_sizes=[2, 2]),
                          seed=1, trace=True)
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
        system = build_system(SystemSpec(protocol="a1", group_sizes=[3, 3, 3]),
                              seed=42)
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

    def test_a2_names_head_round_and_missing_bundles(self):
        system = build_system(SystemSpec(protocol="a2", group_sizes=[2, 2]),
                              seed=1)
        assert render_waits(system.endpoints).count(
            "no round in flight") == 4
        system.cast(sender=0)
        system.run(until=0.5)
        lines = render_waits(system.endpoints).splitlines()
        assert lines[0] == ("p0    round 1 waits on the bundle of "
                            "group(s) 1; own bundle known")
        assert lines[2] == "p2    no round in flight"
        system.run_quiescent()
        assert render_waits(system.endpoints).count(
            "no round in flight") == 4

    def test_protocols_without_the_hook_are_skipped(self):
        system = build_system(SystemSpec(protocol="skeen", group_sizes=[2, 2]),
                              seed=1)
        assert render_waits(system.endpoints) == \
            "(no endpoint reports waits)"


class TestBenchPairs:
    """The alternating-pairs tool, on two copies of one tree whose
    benchmark command is a stub obeying the driver contract."""

    STUB = (
        "import json, os, sys\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "open('calls.log', 'a').write(' '.join(sys.argv[1:]) + '\\n')\n"
        "open('../order.log', 'a').write(\n"
        "    os.path.basename(os.getcwd()) + '\\n')\n"
        "print('progress noise')\n"
        "print(json.dumps({'correct': True, 'attempted': 10, 'failed': 0,\n"
        "  'metrics': {\n"
        "    'ops_per_s': {'value': SPEED, 'unit': '1/s'},\n"
        "    'setup_s': {'value': 0.5, 'unit': 's'},\n"
        "    'lat_p50_sim': {'value': 2.0 + int(args['--seed']),\n"
        "                    'unit': 'simtime'}}}))\n")

    def _checkout(self, path, speed):
        import json

        path.mkdir()
        (path / "stub.py").write_text(self.STUB.replace("SPEED", str(speed)))
        (path / "BENCHMARK.json").write_text(json.dumps({
            "command": [sys.executable, "stub.py"], "run_seconds": 3,
            "end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower"},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
                {"name": "lat_p50_sim", "unit": "simtime",
                 "better": "lower"}]}))
        return str(path)

    def test_one_pair_through_a_stub_command(self, tmp_path, capsys):
        import json

        from repro.tools import bench_pairs

        parent = self._checkout(tmp_path / "parent", 100.0)
        change = self._checkout(tmp_path / "change", 125.0)
        assert bench_pairs.main(
            [parent, change, "--workload", "w1", "--workload", "w2",
             "--pairs", "1", "--seed", "7"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].startswith("| workload (pairs) | `setup_s` |")
        assert len(table) == 4
        assert "`w1` seed 7 (1)" in table[2] and "`w2` seed 7" in table[3]
        assert "100 [100–100] → 125 [125–125] (1.250x, " \
               "change better 1/1)" in table[2]
        assert "(1.000x, change better 0/1)" in table[2]  # setup_s ties
        assert "| identical |" in table[2]
        # Each checkout ran its own command, in its own directory, with
        # the driver contract's arguments.
        for checkout in (parent, change):
            with open(checkout + "/calls.log") as fh:
                assert fh.read().splitlines() == [
                    f"--workload {w} --seed 7 --seconds 3 --trace 0"
                    for w in ("w1", "w2")]
        assert bench_pairs.main(
            [parent, change, "--workload", "w1", "--pairs", "2",
             "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        # Which side goes first alternates from pair to pair.
        assert (tmp_path / "order.log").read_text().split()[-4:] == [
            "parent", "change", "change", "parent"]
        assert result["metrics"]["ops_per_s"]["parent"] == [100.0, 100.0]
        assert result["metrics"]["ops_per_s"]["change_better"] == 2
        assert result["metrics"]["lat_p50_sim"] == {
            "exact": True, "parent": 44.0, "change": 44.0,
            "identical": True}
        assert result["not_ok"] == {"parent": 0, "change": 0}
