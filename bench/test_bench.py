"""Smoke test of the benchmark itself, on the tiny job lists.

    python3 -m pytest -q bench/test_bench.py

For each workload: every metric named in BENCHMARK.json is printed with its
unit, every output check passes, and two traced runs of the same seed give
identical counters.  Also: outside a source checkout the benchmark fails
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ops", "B")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def run_tiny(workload, trace, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    record, result = run_tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    assert env["src_qrand_lines"] > 0 and env["numba_importable"] in (True, False)
    assert record["failed_ratio"] == {"value": 0.0, "unit": "ratio"}

    _, first = run_tiny(workload, 1)
    _, second = run_tiny(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for traced in (first, second):
        assert traced["correct"] and traced["failed"] == 0
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts == again
    assert counts["cli.main.calls"] > 0


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "attack", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
