"""Smoke test for the benchmark: every workload at tiny size.

It checks that each metric BENCHMARK.json names is emitted with its unit,
that count metrics and the attempted and failed operations repeat
exactly for one seed, and that a checkout without the sources fails
without a result.  It never gates on time.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
_results: dict[tuple[str, int], dict] = {}


def run(workload: str, trace: int, root: Path = ROOT, seconds: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int) -> dict:
    if (workload, trace) not in _results:
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = result(workload, 1)["metrics"]
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: again[k]["value"] for k in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_attempted_and_failed_do_not_depend_on_run_length(workload):
    first = result(workload, 0)
    proc = run(workload, 0, seconds=2)
    assert proc.returncode == 0, proc.stderr
    longer = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (longer["attempted"], longer["failed"]) == (first["attempted"], first["failed"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
