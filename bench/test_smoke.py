"""Smoke test of the benchmark itself at tiny size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced on tiny inputs and checks the
result line against BENCHMARK.json, then checks that a directory holding
only the benchmark refuses to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_result_line_matches_spec(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_solver_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "solver-fuzz", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append(metrics["solver.kkt_per_solve"]["value"])
    assert counts[0] == counts[1] > 0


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "solver-fuzz", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
