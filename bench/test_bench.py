"""Smoke tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def run_ok(workload: str, seed: int, trace: int):
    proc = smoke(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_work" / f"{workload}-smoke" / "report.json").read_text())
    return result, report


def assert_result(result: dict, spec_metrics: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_seeded_inputs(workload):
    first, report1 = run_ok(workload, 1, 0)
    second, report2 = run_ok(workload, 2, 0)
    for result in (first, second):
        assert_result(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report1["inputs_sha256"] != report2["inputs_sha256"]
    assert report1["call_set"] == report2["call_set"]
    assert report1["provenance"]["seed"] == 1 and report1["provenance"]["blas_threads"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    from tracing import PER_LAYER

    first, report1 = run_ok(workload, 5, 1)
    second, report2 = run_ok(workload, 5, 1)
    assert_result(first, SPEC["per_layer"])
    assert report1["inputs_sha256"] == report2["inputs_sha256"]
    assert report1["notes"]["counts_repeat"] is True
    counts = [name for name, (_, kind) in PER_LAYER.items() if kind == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_units_agree_with_benchmark_json():
    from tracing import PER_LAYER

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (unit, _) in PER_LAYER.items()}


def test_repeat_script_accepts_identical_counts():
    proc = subprocess.run(
        [sys.executable, "bench/repeat.py", "--workload", "sweep_paper", "--seed", "4",
         "--seconds", "0.3", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DIFFERENT" not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
