"""Unit tests for the inspection and measurement tools."""

import sys

from repro.runtime.builder import SystemSpec, build_system
from repro.tools.waits import render_waits
from repro.workload.generators import (
    poisson_workload,
    schedule_workload,
    uniform_k_groups,
)


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
        "open('calls.log', 'a').write(' '.join(sys.argv[1:]) + ' '\n"
        "    + os.environ.get('PYTHONDONTWRITEBYTECODE', '-') + '\\n')\n"
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

    def test_one_pair_through_a_stub_command(self, tmp_path, capsys,
                                             monkeypatch):
        import json

        from repro.tools import bench_pairs

        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

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
        # the driver contract's arguments and bytecode caches allowed:
        # one discarded warm-up, then the pair, per workload.
        for checkout in (parent, change):
            with open(checkout + "/calls.log") as fh:
                assert fh.read().splitlines() == [
                    f"--workload {w} --seed 7 --seconds 3 --trace 0 -"
                    for w in ("w1", "w1", "w2", "w2")]
        assert bench_pairs.main(
            [parent, change, "--workload", "w1", "--pairs", "2",
             "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        # The warm-up runs each side once; then which side goes first
        # alternates from pair to pair.
        assert (tmp_path / "order.log").read_text().split()[-6:] == [
            "parent", "change", "parent", "change", "change", "parent"]
        assert result["warmup_runs"] == 1
        assert result["metrics"]["ops_per_s"]["parent"] == [100.0, 100.0]
        assert result["metrics"]["ops_per_s"]["change_better"] == 2
        assert result["metrics"]["lat_p50_sim"] == {
            "exact": True, "parent": 44.0, "change": 44.0,
            "identical": True}
        assert result["not_ok"] == {"parent": 0, "change": 0}
