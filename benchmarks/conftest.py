"""Benchmark configuration.

Each bench regenerates one of the paper's tables/figures through the full
simulation stack and reports the wall time of doing so.  Experiments are
deterministic, so a single round is measured; the regenerated table itself
is attached to ``benchmark.extra_info`` for inspection in the JSON output.

``test_pipeline_engines.py`` additionally records real-pipeline throughput
(threaded vs process engine), ``test_warm_pool.py`` records cold-spawn
vs warm-pool query latency, and ``test_merge_scaling.py`` records the
distributed-tile-framebuffer scaling table, all into
``BENCH_pipeline.json`` at the repo root via the :func:`pipeline_report`
fixture, so the perf trajectory of the real engines is tracked across
PRs.  The baseline file is committed; rerunning the benches refreshes it
in place.
"""

import json
import os
import time
from pathlib import Path

import pytest

BENCH_PIPELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


@pytest.fixture
def regenerate(benchmark):
    """Run an experiment once under the benchmark timer; return its table."""

    def _run(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        benchmark.extra_info["rows"] = len(result.rows)
        benchmark.extra_info["title"] = result.title
        return result

    return _run


@pytest.fixture(scope="session")
def pipeline_report():
    """Collect per-engine pipeline measurements; write BENCH_pipeline.json.

    Tests store one record per engine under ``report["engines"][name]``
    (wall seconds, triangles/sec, pixels/sec, plus scene facts); the warm
    pool bench stores its cold/warm latencies under ``report["warm_pool"]``.
    At session end the collected records — and the process/threaded speedup
    when both ran — are serialised to the repo root.  Non-JSON extras (e.g.
    rendered images kept for parity assertions) go under keys starting with
    ``_`` and are stripped before writing.

    When only a subset of the benches ran, previously written sections are
    preserved so a partial rerun does not erase the rest of the baseline.
    """
    report = {"engines": {}}
    yield report
    if (
        not report["engines"]
        and "warm_pool" not in report
        and "merge_scaling" not in report
        and "cache" not in report
    ):
        return
    engines = {
        name: {k: v for k, v in rec.items() if not k.startswith("_")}
        for name, rec in report["engines"].items()
    }
    previous = {}
    if BENCH_PIPELINE_PATH.exists():
        try:
            previous = json.loads(BENCH_PIPELINE_PATH.read_text())
        except ValueError:
            previous = {}
    payload = {
        "benchmark": "pipeline_engines",
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count(),
        "engines": engines or previous.get("engines", {}),
    }
    threaded = payload["engines"].get("threaded")
    process = payload["engines"].get("process")
    if threaded and process:
        payload["speedup_process_vs_threaded"] = round(
            threaded["wall_s"] / process["wall_s"], 3
        )
    warm_pool = report.get("warm_pool", previous.get("warm_pool"))
    if warm_pool:
        payload["warm_pool"] = warm_pool
    merge_scaling = report.get("merge_scaling", previous.get("merge_scaling"))
    if merge_scaling:
        payload["merge_scaling"] = merge_scaling
    cache = report.get("cache", previous.get("cache"))
    if cache:
        payload["cache"] = cache
    BENCH_PIPELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
