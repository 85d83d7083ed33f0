"""The benchmark's own tests.

Run from the repository root (they take a few minutes: every workload is
traced twice)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from suite import WORKLOADS  # noqa: E402

#: Metrics a later change may cite as exact counts.
EXACT = [
    name
    for name, unit in run.PER_LAYER
    if name.endswith(".calls") or unit in ("count", "B")
]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = (
        result_of(bench("--workload", workload, "--seed", "3", "--trace", "1"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in run.PER_LAYER}
    counts = {name: first["metrics"][name]["value"] for name in EXACT}
    assert counts == {name: second["metrics"][name]["value"] for name in EXACT}
    assert counts["simulator.arrive.calls"] > 0


def test_a_broken_check_counts_every_request_as_failed():
    result = result_of(
        bench(
            "--workload", "migrating-dispatch", "--seed", "0", "--seconds", "1",
            "--trace", "0", "--break-check",
        )
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_end_to_end_run_reports_every_metric():
    result = result_of(
        bench("--workload", "migrating-dispatch", "--seed", "1", "--seconds", "1")
    )
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan-ff", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
