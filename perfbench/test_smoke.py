"""Smoke tests for the pipeline benchmark itself.

Each workload runs once per trace mode at the tiny shape, in its own process
so that one workload's memory peak cannot show in another's. The report's
metric names and units must match BENCHMARK.json exactly.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)
RUN = SPEC["command"][1:]


def run_bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_declared_metrics(workload, trace, tmp_path):
    report = tmp_path / "report.json"
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--shape", "tiny", "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    env = json.loads(report.read_text())["environment"]
    assert env["backend"] == "numpy" and env["workload"] == workload
    if trace:
        assert result["metrics"]["stages.covered_frac"]["value"] >= 0.95


def test_compare_refuses_different_shapes(tmp_path):
    base = {"environment": {"backend": "numpy", "workload": "cluster", "seed": 0,
                            "shape": {"n": 1}},
            "metrics": {"pipeline_s": {"value": 1.0, "unit": "s"}}}
    other = json.loads(json.dumps(base))
    other["environment"]["shape"] = {"n": 2}
    paths = []
    for name, report in (("a.json", base), ("b.json", other)):
        (tmp_path / name).write_text(json.dumps(report))
        paths.append(str(tmp_path / name))
    compare = os.path.join(ROOT, "perfbench", "compare.py")
    same = subprocess.run([sys.executable, compare, paths[0], paths[0]],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stderr
    differ = subprocess.run([sys.executable, compare, *paths],
                            capture_output=True, text=True, timeout=60)
    assert differ.returncode == 2 and "shape differs" in differ.stderr


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, it must fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "0", "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
