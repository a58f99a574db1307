"""Smoke test of the benchmark driver at tiny sizes, and of its
correctness check.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from workloads import REFERENCES, WORKLOADS, check_record  # noqa: E402


def run_driver(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_driver_prints_every_metric_with_its_unit(workload, trace):
    proc = run_driver(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        summary = [line for line in lines[:-1]
                   if line.split()[:3] == [workload, metric["name"], "="]]
        assert len(summary) == 1 and summary[0].endswith(" " + metric["unit"])
    provenance = json.loads(lines[0])["provenance"]
    assert provenance["blas_threads"] == 1 and provenance["seed"] == 1
    assert provenance["workers"] <= provenance["nproc"]


def test_driver_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_driver(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_check_accepts_the_reference_and_rejects_a_shifted_mean(name):
    workload, ref = WORKLOADS[name], REFERENCES[name]
    size = workload.size
    stderr = ref["stderr"] * math.sqrt(ref["samples"] / size)
    if name == "spacing_1d_large":
        good = {"rate": ref["mean"], "mean_count": 8.0, "expected_count": 8.0}
        bad = dict(good, rate=2 * ref["mean"])
        wrong_count = dict(good, mean_count=16.0)
        assert check_record(workload, wrong_count, size)
    else:
        good = {"mean": ref["mean"], "stderr": stderr, "samples": size, "verdict": "PASS"}
        bad = dict(good, mean=ref["mean"] + 10 * math.hypot(stderr, ref["stderr"]))
        assert check_record(workload, dict(good, verdict="FAIL"), size)
    assert check_record(workload, good, size) == []
    assert check_record(workload, bad, size)
