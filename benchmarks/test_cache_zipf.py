"""Zipf-mix ablation for the serve-path result cache.

Interactive exploration traffic is highly repetitive — a few popular
(isovalue, view, timestep) combinations dominate.  This bench drives the
query service with a Zipf-distributed mix over a small set of distinct
queries, with and without the :mod:`repro.cache` tiers, and records
throughput versus hit rate into ``BENCH_pipeline.json``.

Acceptance bar (asserted here and guarded in CI): at a hit rate of at
least 0.5 the cached service serves the mix at >= 2x the uncached
throughput, with every response byte-identical to the uncached render.

The residency case sizes the budget *between* "every frame" and "every
frame plus every triangle set".  Frames are keyed by the request, so once
the mix has been seen they all stay answerable while plain LRU retires
the triangle arrays; when the frame key was the triangle-content digest a
frame was lost with its arrays.  Bar: after the first pass of the mix at
least 0.9 of the responses come from the tile tier, byte-identical.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import QueryService, SceneSpec

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the query service pools need the fork start method",
)

SCENE = SceneSpec(
    "bench", grid=11, timesteps=2, species=2, nchunks=8, nfiles=4, seed=7,
    isovalue=0.35,
)
IMAGE = 32
COPIES = 2
N_QUERIES = 36
ZIPF_S = 1.1

#: The distinct queries, popularity rank order.
DISTINCT = [
    {"isovalue": 0.35, "timestep": 0},
    {"isovalue": 0.40, "timestep": 0},
    {"isovalue": 0.35, "timestep": 1},
    {"isovalue": 0.35, "timestep": 0, "view": {"azimuth": 60, "elevation": 10}},
    {"isovalue": 0.30, "timestep": 1},
    {"isovalue": 0.45, "timestep": 0, "view": {"azimuth": -45, "elevation": 40}},
]


BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def _zipf_mix():
    """N_QUERIES draws from DISTINCT with p ∝ 1/rank^s (deterministic)."""
    ranks = np.arange(1, len(DISTINCT) + 1, dtype=float)
    p = ranks**-ZIPF_S
    p /= p.sum()
    rng = np.random.default_rng(0)
    return [DISTINCT[i] for i in rng.choice(len(DISTINCT), N_QUERIES, p=p)]


def _service(**kw):
    return QueryService(
        scenes=[SCENE], config="R-E-Ra-M", width=IMAGE, height=IMAGE,
        copies=COPIES, **kw,
    )


def _run_mix(service, mix):
    """Serve the mix after one warm-up query; return (wall_s, frames)."""
    service.render(dict(mix[0]))  # cold build + first fill out of the timing
    frames = []
    t0 = time.perf_counter()
    for query in mix:
        frames.append(service.render(dict(query))["frame_b64"])
    return time.perf_counter() - t0, frames


def test_cache_zipf_throughput(benchmark, pipeline_report):
    mix = _zipf_mix()

    def measure():
        uncached = _service()
        try:
            base_s, base_frames = _run_mix(uncached, mix)
        finally:
            uncached.close()
        cached = _service(cache_mb=64)
        try:
            cache_s, cache_frames = _run_mix(cached, mix)
            stats = cached.cache_stats()["shared"]
        finally:
            cached.close()
        return base_s, base_frames, cache_s, cache_frames, stats

    base_s, base_frames, cache_s, cache_frames, stats = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Bit-exactness: every cached response equals the uncached render.
    assert cache_frames == base_frames

    hit_rate = stats["hit_rate"]
    speedup = base_s / cache_s
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["hit_rate"] = hit_rate
    assert hit_rate >= 0.5, f"Zipf mix should mostly hit, got {hit_rate}"
    assert speedup >= 2.0, (
        f"cached serve should be >= 2x uncached at hit rate {hit_rate}, "
        f"got {speedup:.2f}x"
    )

    pipeline_report["cache"] = {
        "queries": N_QUERIES,
        "distinct": len(DISTINCT),
        "zipf_s": ZIPF_S,
        "scene": {"grid": SCENE.grid, "image": IMAGE, "copies": COPIES},
        "config": "R-E-Ra-M",
        "cache_mb": 64,
        "cpu_count": os.cpu_count(),
        "uncached_s": round(base_s, 4),
        "cached_s": round(cache_s, 4),
        "uncached_qps": round(N_QUERIES / base_s, 2),
        "cached_qps": round(N_QUERIES / cache_s, 2),
        "speedup_cached_vs_uncached": round(speedup, 2),
        "hit_rate": hit_rate,
        "bytes_saved": stats["bytes_saved"],
        "bit_exact": True,
    }


def test_cache_residency_between_frames_and_triangles(pipeline_report):
    mix = _zipf_mix()
    sizing = _service(cache_mb=64)
    try:
        reference = [sizing.render(dict(q))["frame_b64"] for q in DISTINCT]
        by_tier = sizing.cache_stats()["shared"]["by_tier"]
    finally:
        sizing.close()
    expected = [reference[DISTINCT.index(query)] for query in mix]
    frames_bytes = by_tier["tiles"]["size_bytes"]
    triangles_bytes = by_tier["triangles"]["size_bytes"]
    budget = frames_bytes + triangles_bytes // 3

    service = _service(cache_mb=budget / 2**20)
    try:
        first = [service.render(dict(query)) for query in mix]
        second = [service.render(dict(query)) for query in mix]
        stats = service.cache_stats()["shared"]
    finally:
        service.close()
    for responses in (first, second):
        assert [r["frame_b64"] for r in responses] == expected
    hit_rate = sum(r["cached"] for r in second) / len(second)
    assert hit_rate >= 0.9, f"frames should outlive their triangles: {hit_rate}"
    resident = stats["by_tier"]
    assert resident["triangles"]["evictions"] > resident["tiles"]["evictions"]

    block = pipeline_report.get("cache")
    if block is None:  # ran alone: keep the committed throughput numbers
        block = pipeline_report["cache"] = json.loads(BENCH_PATH.read_text())["cache"]
    block["residency"] = {
        "budget_bytes": budget,
        "all_frames_bytes": frames_bytes,
        "all_triangle_sets_bytes": triangles_bytes,
        "first_pass_hit_rate": round(sum(r["cached"] for r in first) / len(first), 3),
        "hit_rate": round(hit_rate, 3),
        "tiles": resident["tiles"],
        "triangles": resident["triangles"],
        "bit_exact": True,
    }


def test_cache_baseline_guard():
    """The committed BENCH_pipeline.json carries a healthy cache block."""
    cache = json.loads(BENCH_PATH.read_text()).get("cache")
    assert cache, "BENCH_pipeline.json is missing the cache section"
    assert cache["bit_exact"] is True
    assert cache["hit_rate"] >= 0.5
    assert cache["speedup_cached_vs_uncached"] >= 2.0
    residency = cache["residency"]
    assert residency["bit_exact"] is True
    assert residency["hit_rate"] >= 0.9
    assert residency["all_frames_bytes"] <= residency["budget_bytes"] < (
        residency["all_frames_bytes"] + residency["all_triangle_sets_bytes"]
    )
