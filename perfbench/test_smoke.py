"""Smoke test of the benchmark itself.

    python -m pytest perfbench/test_smoke.py

Runs each workload at minimal length on a fixed seed, untraced and traced
twice, and checks that every metric BENCHMARK.json names is printed with its
unit, that no op failed, and that the call counts repeat exactly between the
two traced runs.  Also checks that the benchmark refuses to run without the
library's source next to it.  Takes a few minutes on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
COUNTS = (
    "interferometer.compose.calls",
    "ofnc.projector_distance.calls",
    "decoherence.beta_under_noise.calls",
    "graphs.enumerate_contexts.calls",
    "photonic.run_context.calls",
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@lru_cache(maxsize=None)
def result(workload: str, trace: int, repeat: int = 0) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload: str, trace: int, section: str) -> None:
    out = result(workload, trace, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_call_counts_repeat_exactly(workload: str) -> None:
    first, second = result(workload, 1, 0), result(workload, 1, 1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
