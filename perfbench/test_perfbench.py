"""Self-test of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench -q          # from the repository root

Tiny runs of every workload show that a report carries every metric
named in BENCHMARK.json with a finite value, and that the output check
fires: one flipped payload byte, or a decoded value nudged past the
error bound, must show up as failed operations.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, inject: str | None = None,
         cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_carries_every_metric(workload, trace):
    res = _result(_run(workload, trace))
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in BENCH[section]}
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1


@pytest.mark.parametrize("inject", ["flip", "nudge"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_check_fires(workload, inject):
    res = _result(_run(workload, 0, inject))
    assert res["failed"] > 0
    assert res["correct"] is False
    assert res["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
