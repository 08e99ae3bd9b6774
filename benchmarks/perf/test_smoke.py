"""Smoke test of the benchmark: ``--quick`` on every workload, both passes.

Not part of tier-1 (``testpaths = ["tests"]``); run it by path:

    python -m pytest benchmarks/perf/test_smoke.py

It checks the contract the driver relies on: the last line of standard
output is one JSON object with exactly ``correct``/``attempted``/
``failed``/``metrics``, the metric names and units are exactly the ones
``BENCHMARK.json`` declares for that pass, no operation failed, and the
traced pass left a span file behind.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# the declared workloads and the one that only runs by hand
WORKLOADS = [w["name"] for w in DECLARED["workloads"]] + ["batch_threaded"]


def run_quick(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--workload",
            workload, "--seed", "5", "--seconds", "5", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_prints_every_end_to_end_metric(workload):
    result = run_quick(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_prints_every_layer_metric(workload):
    result = run_quick(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0

    def moved(prefix: str) -> bool:
        return any(
            m["value"] for n, m in result["metrics"].items()
            if n.startswith(prefix)
        )

    # the "should not move" column holds by construction
    assert moved("cache.") == (workload == "serve_zipf")
    assert moved("core.buffer.") == (
        workload in ("serve_distinct", "serve_zipf", "batch_process")
    )
    assert moved("engines.simulated.") == (workload == "sim_table4")
    if workload == "sim_table4":
        for layer in ("engines.pool.", "engines.process.", "viz.raster."):
            assert not moved(layer)

    spans = [
        json.loads(line)
        for line in (HERE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert spans and all(
        {"id", "name", "op", "parent", "start", "end"} <= set(span)
        for span in spans
    )


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/perf/run.py", "--workload",
            WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
