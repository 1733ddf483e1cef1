"""Smoke test of the benchmark: one round of each workload, output schema.

    python -m pytest bench/test_bench.py -q

Takes about a minute: a round of kde_converge alone runs six experiments.
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


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_schema(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"))
    _check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0, m["name"]


def test_per_layer_schema():
    result = _result(_run(ROOT, "--workload", "w1_pairs", "--seed", "0", "--seconds", "0", "--trace", "1"))
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["wasserstein.w1_routes.calls"]["value"] == result["attempted"]


def test_same_seed_same_inputs():
    runs = [_run(ROOT, "--workload", "w1_pairs", "--seed", "3", "--seconds", "0", "--trace", "1") for _ in range(2)]
    cells = [_result(p)["metrics"]["wasserstein.gap_body.cells"]["value"] for p in runs]
    assert cells[0] == cells[1] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "w1_pairs", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
