"""Smoke test of the benchmark instrument (collected by tier-1).

Black-box on purpose: it drives ``bench/run.py`` the way a user and the
driver do, on ``--quick`` plans (÷20), and reads only what the runner
prints and writes.  No wall-clock assertions; every file it causes to
be written lands under pytest's tmp directory.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def _start(env, *args):
    return subprocess.Popen(RUN + ["--quick", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every invocation the tests read, started side by side.

    Seed 42: an untraced pass, the sweep and a traced pass per workload
    (so exact metrics are compared across two runs each, one of them
    under the tracer).  Seed 7: one untraced pass per workload, to show
    a second seed is green too.  ``driver0`` / ``driver1``: the driver
    contract's command line on one workload.
    """
    out = tmp_path_factory.mktemp("bench")
    # ~40 short-lived interpreters import the same modules: let them
    # share a bytecode cache, kept out of the repo.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(out / "pycache")
    procs = {
        42: _start(env, "--repeats", "1", "--seed", "42",
                   "--out", str(out / "seed42")),
        7: _start(env, "--repeats", "1", "--seed", "7", "--no-trace",
                  "--out", str(out / "seed7")),
    }
    for trace in (0, 1):
        procs[f"driver{trace}"] = _start(
            env, "--workload", "a1_local", "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--out", str(out / "driver"))
    results = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=170)
        assert proc.returncode == 0, \
            f"{key} exited {proc.returncode}\n{stdout[-3000:]}\n{stderr[-3000:]}"
        results[key] = {"stdout": stdout}
    for seed in (42, 7):
        with open(out / f"seed{seed}" / "result.json") as fh:
            results[seed].update(json.load(fh))
        results[seed]["out"] = out / f"seed{seed}"
    return results


def test_contract_names_are_well_formed():
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in END_TO_END
    assert len(WORKLOADS) == 7


def test_schema_complete_on_every_workload(runs):
    report = runs[42]["workloads"]
    assert sorted(report) == sorted(WORKLOADS)
    for workload, entry in report.items():
        missing = [name for name in END_TO_END + PER_LAYER
                   if name not in entry["metrics"]]
        assert not missing, (workload, missing)
        assert entry["problems"] == []
        assert all(v == "ok" for v in entry["verdicts"].values()), entry
        for name in END_TO_END:  # bounded metrics may never read 0
            assert entry["metrics"][name] > 0, (workload, name)
    # ... and printed by name, with the unit, for every workload.
    for name in END_TO_END:
        assert runs[42]["stdout"].count(f"    {name} ") == len(WORKLOADS)


def test_exact_metrics_repeat_and_seeds_differ(runs):
    # The runner refuses (exit 2) when two passes of one (workload,
    # seed) disagree on any exact metric or on the fingerprint; seed 42
    # compared the untraced and the traced pass of each workload, and
    # test_driver_contract_output compares three untraced ones.
    for workload in WORKLOADS:
        first = runs[42]["workloads"][workload]
        other = runs[7]["workloads"][workload]
        assert first["trace"] is not None and other["trace"] is None
        assert len(first["fingerprint"]) == 64
        assert first["fingerprint"] != other["fingerprint"]
        assert other["problems"] == []
        assert other["metrics"]["failed_op_ratio"] == 0


def test_layer_self_times_sum_to_the_traced_run(runs):
    for workload, entry in runs[42]["workloads"].items():
        trace = entry["trace"]
        named = sum(trace["self_s"].values())
        assert named == pytest.approx(trace["run_s"], rel=0.05), workload
        assert entry["metrics"]["trace.unattributed_ratio"] <= 0.05
        spans = runs[42]["out"] / f"trace_{workload}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert {"id", "parent", "name", "layer", "op", "start",
                "end"} <= set(first)


def test_idle_layers_read_zero(runs):
    report = runs[42]["workloads"]
    for workload, entry in report.items():
        for name, value in entry["metrics"].items():
            if name.startswith("transport.") and workload != "a1_lossy":
                assert value == 0, (workload, name, value)
    for name, value in report["store_mix"]["metrics"].items():
        if name.startswith("reconfig."):
            assert value == 0, (name, value)
    assert report["a1_local"]["metrics"]["net.inter_msgs"] == 0
    # ... while the layer each workload exists for is busy.
    assert report["a1_lossy"]["metrics"]["transport.retransmits"] > 0
    assert report["store_rebalance"]["metrics"]["reconfig.completed"] > 0
    assert report["hb_crash"]["metrics"]["failure.crashes"] == 5


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_output(runs, trace):
    result = json.loads(runs[f"driver{trace}"]["stdout"].splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert sorted(got) == ["unit", "value"]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json + bench/: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "a1_global",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
