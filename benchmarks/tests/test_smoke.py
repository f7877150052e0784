"""Smoke test of the benchmark: every workload at minimal size, verification on.

Run from the repository root (it is not part of the tier-1 suite in tests/):

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._load_package()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_verifies_every_op(workload, trace, seed):
    out = run.run_benchmark(workload, seed, seconds=0, trace=trace, small=True)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")


def test_traced_counters_repeat_exactly():
    def counters():
        metrics = run.run_benchmark("desk_sweep", 3, seconds=0, trace=True, small=True)["result"]["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if not k.endswith(("_s", "busy_share", "overhead_ms"))}

    assert counters() == counters()


def test_wrong_answer_is_reported_as_failed(monkeypatch):
    from fogplace import solver
    from fogplace.solver import SolveStatus

    original = solver.solve_exact

    def claims_infeasible(*args, **kwargs):
        report = original(*args, **kwargs)
        return type(report)(status=SolveStatus.INFEASIBLE, relax=report.relax)

    monkeypatch.setattr(solver, "solve_exact", claims_infeasible)
    result = run.run_benchmark("packing_search", run.DEFAULT_SEED, seconds=0, trace=False,
                               small=True)["result"]
    assert not result["correct"] and result["failed"] >= 1


def test_command_prints_result_last():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "desk_sweep",
                           "--seed", "0", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert set(json.loads(lines[-2])["environment"]) >= {"python", "numpy", "scipy", "nproc",
                                                          "git_commit", "tracing", "src_fogplace_lines"}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_OPS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "desk_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
