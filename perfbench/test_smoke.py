"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks the output contract of ``run.py`` on every workload, with and
without tracing, that two runs at one seed give one digest, that traced
self times add up to the traced wall time, and that the harness refuses
to run without the library sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int = 7, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest:"))
    return result, digest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-estimates", "reference-geometry", "cli-mix"])
def test_output_contract(workload, trace):
    result, _ = parse(run(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0.0 for entry in result["metrics"].values())


def test_same_seed_same_digest():
    first = parse(run("mc-estimates", seed=11))[1]
    second = parse(run("mc-estimates", seed=11))[1]
    other = parse(run("mc-estimates", seed=12))[1]
    assert first == second != other


def test_self_times_add_up_to_traced_wall():
    parse(run("cli-mix", trace=1))
    saved = json.loads((HERE / "out" / "cli-mix-seed7-trace1.json").read_text(encoding="utf-8"))
    metrics = saved["metrics"]
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["cli.self_s"] > 0.0 and metrics["measures.p_area_calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("mc-estimates", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
