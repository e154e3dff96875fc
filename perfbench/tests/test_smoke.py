"""Tiny-scale smoke test of the benchmark itself.

Run from the repository root (Spark's Python workers import MoniLog from
``src``):

    PYTHONPATH=src python -m pytest perfbench/tests -q -p no:cacheprovider
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.batch import BatchSpec
from perfbench.harness import Gate
from perfbench.stream import ReplaySpec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

TINY = {
    "batch-200k": BatchSpec(train_sessions=150, test_sessions=120, warmup_sessions=20,
                            n_sources=2, anomaly_rate=0.1),
    "stream-250": ReplaySpec(train_sessions=150, rate=60.0, file_interval_s=0.5,
                             n_sources=2, anomaly_rate=0.1, drain_timeout_s=60.0),
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(spark, tmp_path, workload, trace):
    gate, metrics, prov = bench.run_workload(
        workload, seed=3, seconds=3.0, trace=bool(trace), workdir=str(tmp_path),
        spark=spark, spec=TINY[workload])
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    assert gate.correct and gate.failed == 0 and gate.attempted > 0
    assert prov["workload"] == workload and prov["seed"] == 3


def test_gate_trips_on_duplicated_verdict():
    gate = Gate()
    gate.check({"s1", "s2", "s3"}, ["s1", "s2", "s2", "s3"])
    assert (gate.attempted, gate.failed, gate.correct) == (3, 1, False)


def test_gate_trips_on_missing_and_unknown_verdicts():
    gate = Gate()
    gate.check({"s1", "s2"}, ["s1"])
    assert (gate.failed, gate.correct) == (1, False)
    gate = Gate()
    gate.check({"s1"}, ["s1", "ghost"])
    assert (gate.failed, gate.invalid, gate.correct) == (0, 1, False)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch-200k",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
