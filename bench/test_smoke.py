"""Smoke test of the benchmark at toy sizes.

Run from the root of a checkout:

    python3 -m pytest bench/test_smoke.py

Every workload must pass its output gate with no failed test, and print
every metric BENCHMARK.json names, with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "bench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_gate_and_prints_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    assert "missing spans" not in done.stderr


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "closure-sweep", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_counts_parallel_children_once():
    spans = [(1, "batch", 0.0, 10.0, None, 1),
             (2, "run", 1.0, 5.0, 1, 2),
             (3, "run", 2.0, 6.0, 1, 3),
             (4, "emit", 1.5, 2.5, 2, 2)]
    assert tracer.self_times(spans) == {"batch": 5.0, "run": 7.0, "emit": 1.0}
