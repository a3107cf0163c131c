"""Tests of the benchmark itself, on the three workloads at reduced n.

Run from the repository root:

  PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import counts  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Small enough for a second per call; scan_warm's budget still forces the
# checkpoint/replay path (its backward field is 39 x 120 x 239 x 8 B = 9 MB).
SMALL = {
    "scan_warm": dataclasses.replace(WORKLOADS["scan_warm"], n=120, memory_budget=2_000_000),
    "scan_cold": dataclasses.replace(WORKLOADS["scan_cold"], n=60, inputs=2),
    "dp_long": dataclasses.replace(WORKLOADS["dp_long"], n=400),
}
# Printed by name with units by every --trace 0 run, in the JSON result or not.
READABLE_METRICS = {
    "analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "lattice_nodes_per_s": "1/s", "result_err": "abs", "failed_frac": "",
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(autouse=True)
def private_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "work" / "digests.json"))


def bench(w, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(w, seed=3, seconds=0.1, trace=trace)
    return result, out.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_metrics_print_with_units(name):
    w = SMALL[name]
    result, text = bench(w, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CALLS
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= w.inputs
    for metric, unit in READABLE_METRICS.items():
        line = next(l for l in text.splitlines() if l.split()[:1] == [metric])
        assert unit in line.split()[2:3] or not unit


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_emits_every_per_layer_metric(name):
    w = SMALL[name]
    result, text = bench(w, trace=1)
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert "tracing overhead" in text
    if w.scan:
        predicted = counts.scan_counts(w.n, w.depth, w.memory_budget)
        assert m["boundary.replay_blocks"] == predicted["replay_blocks"]
        assert m["boundary.live_pair_layers"] == predicted["live_pair_layers"]
        assert m["thermal.node_fields"] > predicted["table_node_fields"]
        assert f"node-fields {predicted['table_node_fields']} measured" in text
        assert m["thermal.steps.forward"] > 0 and m["thermal.steps.backward"] > 0
        assert "ns/node-field" in text
    else:
        assert m["thermal.steps"] == 0
        assert m["zerotemp.path_nodes"] >= w.n
        assert m["zerotemp.codes_mb"] == pytest.approx(w.n * w.n / 1e6)
        assert m["ingest.rows"] == 2 * w.n
    # The table's checkpointed backward sweep steps about twice per forward
    # step (scout plus replay); a single block steps once.
    if name == "scan_warm":
        assert m["boundary.replay_blocks"] > 1
        assert m["boundary.backward_per_forward_step"] > 1.3
    if name == "scan_cold":
        assert m["boundary.replay_blocks"] == 1
        assert m["boundary.backward_per_forward_step"] < 1.2
        assert m["boundary.fallback_calls"] > 0


@pytest.fixture
def worker():
    with run.Worker(run.child_env()) as w:
        yield w


def analyze_once(w, tmp_path, worker):
    inp = run.Input(w, 5, str(tmp_path / "in"), worker, time.perf_counter() + 120, {}, "src")
    report = inp.call(0)
    assert report["exit"] == 0
    return inp.pair, report["files"]


def edit_summary(files, **result):
    s = json.loads(files["summary.json"])
    s["result"].update(result)
    return dict(files, **{"summary.json": json.dumps(s).encode()})


@pytest.mark.parametrize("name", ["scan_warm", "dp_long"])
def test_perturbed_winner_energy_is_caught(name, tmp_path, worker):
    w = SMALL[name]
    pair, files = analyze_once(w, tmp_path, worker)
    problems, err = check.check_outputs(w, pair, files)
    assert problems == []
    energy = json.loads(files["summary.json"])["result"]["energy"]
    bad_problems, bad_err = check.check_outputs(w, pair, edit_summary(files, energy=energy + 1e-3))
    assert bad_problems
    assert bad_err > err + 5e-4


def test_winner_that_is_not_the_table_minimum_fails(tmp_path, worker):
    w = SMALL["scan_warm"]
    pair, files = analyze_once(w, tmp_path, worker)
    result = json.loads(files["summary.json"])["result"]
    other = [result["end"][0] - 1, result["end"][1]]
    problems, _ = check.check_outputs(w, pair, edit_summary(files, end=other))
    assert any("not the table minimum" in p for p in problems)


def test_missing_file_and_changed_bytes_fail(tmp_path, worker):
    w = SMALL["dp_long"]
    pair, files = analyze_once(w, tmp_path, worker)
    partial = {k: v for k, v in files.items() if k != "path.csv"}
    problems, _ = check.check_outputs(w, pair, partial)
    assert problems

    inp = run.Input(w, 5, str(tmp_path / "again"), worker, time.perf_counter() + 120, {}, "src")
    assert inp.judge({"exit": 0, "files": files})[0] == []
    changed = dict(files, **{"lag_by_time.csv": files["lag_by_time.csv"] + b"\n"})
    assert any("differ in bytes" in p for p in inp.judge({"exit": 0, "files": changed})[0])


def test_recorded_work_counts_are_current():
    assert counts.all_counts() == counts.load_record()


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
