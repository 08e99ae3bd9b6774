"""End-to-end tests for the serve-path result cache.

Correctness bar: a cached response must be byte-identical (same PPM
payload) to what an uncached service renders for the same query — across
engines' merge fan-outs, under eviction pressure, and for every tier.
"""

import multiprocessing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve import Query, QueryService, SceneSpec, cache_keys

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the query service pools need the fork start method",
)

SCENE = SceneSpec(
    "unit", grid=11, timesteps=2, species=2, nchunks=8, nfiles=4, seed=7,
    isovalue=0.35,
)


def _service(**kw):
    defaults = dict(
        scenes=[SCENE], config="R-E-Ra-M", width=32, height=32, copies=2
    )
    defaults.update(kw)
    return QueryService(**defaults)


@pytest.fixture(scope="module")
def uncached_frames():
    """Reference frames from a cache-free service, one per query shape."""
    queries = {
        "base": {"isovalue": 0.4, "timestep": 1},
        "view": {"isovalue": 0.4, "timestep": 1,
                 "view": {"azimuth": 60, "elevation": 10}},
        "iso2": {"isovalue": 0.3, "timestep": 0},
        "tiled": {"isovalue": 0.4, "timestep": 1, "merge_copies": 2},
    }
    service = _service()
    try:
        return {
            name: service.render(dict(query))["frame_b64"]
            for name, query in queries.items()
        }
    finally:
        service.close()


def test_cached_responses_are_bit_exact(uncached_frames):
    service = _service(cache_mb=32)
    try:
        first = service.render({"isovalue": 0.4, "timestep": 1})
        second = service.render({"isovalue": 0.4, "timestep": 1})
        assert first["frame_b64"] == uncached_frames["base"]
        assert second["frame_b64"] == uncached_frames["base"]
        assert first["cached"] is False
        assert first["cache"]["tiles"] == "miss"
        assert first["cache"]["triangles"] == "miss"
        assert second["cached"] is True
        # A full hit is answered by the tile tier alone.
        assert second["cache"]["tiles"] == "hit"
        assert "triangles" not in second["cache"]
        assert second["cache"]["bytes_saved"] > 0
        assert second["makespan_s"] == 0.0  # no pipeline run
        assert second["active_pixels"] == first["active_pixels"]
        by_tier = service.cache_stats()["shared"]["by_tier"]
        assert by_tier["tiles"]["hits"] == 1  # the repeat: one tile lookup
        assert by_tier["triangles"]["hits"] == 0  # ... and nothing else
    finally:
        service.close()


def test_cached_view_queries_do_not_collide(uncached_frames):
    service = _service(cache_mb=32)
    try:
        base = service.render({"isovalue": 0.4, "timestep": 1})
        view = service.render(
            {"isovalue": 0.4, "timestep": 1,
             "view": {"azimuth": 60, "elevation": 10}}
        )
        # Same triangles (tier hit), different camera: its own tile entry.
        assert view["cache"]["triangles"] == "hit"
        assert view["cached"] is False
        assert view["frame_b64"] == uncached_frames["view"]
        again = service.render(
            {"isovalue": 0.4, "timestep": 1,
             "view": {"azimuth": 60, "elevation": 10}}
        )
        assert again["cached"] is True
        assert again["frame_b64"] == uncached_frames["view"]
        assert base["frame_b64"] == uncached_frames["base"]
    finally:
        service.close()


def test_tiered_merge_cached_frames_match_single_merge(uncached_frames):
    service = _service(cache_mb=32, merge_copies=2)
    try:
        first = service.render(
            {"isovalue": 0.4, "timestep": 1, "merge_copies": 2}
        )
        second = service.render(
            {"isovalue": 0.4, "timestep": 1, "merge_copies": 2}
        )
        assert second["cached"] is True
        assert first["frame_b64"] == uncached_frames["tiled"]
        assert second["frame_b64"] == uncached_frames["tiled"]
        # The tiled pipeline renders the same image as the single merge.
        assert second["frame_b64"] == uncached_frames["base"]
    finally:
        service.close()


def test_eviction_pressure_keeps_responses_bit_exact(uncached_frames):
    # A cache too small for every entry: eviction churns constantly, but
    # every response — hit, miss, or recomputed after eviction — must stay
    # identical to the uncached render.
    service = _service(cache_mb=0.01)
    try:
        sequence = ["base", "iso2", "base", "view", "iso2", "base"]
        queries = {
            "base": {"isovalue": 0.4, "timestep": 1},
            "view": {"isovalue": 0.4, "timestep": 1,
                     "view": {"azimuth": 60, "elevation": 10}},
            "iso2": {"isovalue": 0.3, "timestep": 0},
        }
        for name in sequence:
            response = service.render(dict(queries[name]))
            assert response["frame_b64"] == uncached_frames[name], name
        stats = service.cache_stats()["shared"]
        assert stats["evictions"] + stats["rejected"] > 0
        assert stats["size_bytes"] <= stats["capacity_bytes"]
    finally:
        service.close()


def test_negative_tier_caches_failed_lookups():
    service = _service(cache_mb=8)
    try:
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="unknown dataset"):
                service.render({"dataset": "missing"})
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="out of range"):
                service.render({"timestep": 99})
        negative = service.cache_stats()["shared"]["by_tier"]["negative"]
        assert negative["hits"] == 2
        assert negative["misses"] == 2
    finally:
        service.close()


def test_fused_config_refuses_cache_but_still_serves(uncached_frames):
    service = _service(cache_mb=8, config="RE-Ra-M")
    try:
        first = service.render({"isovalue": 0.4, "timestep": 1})
        second = service.render({"isovalue": 0.4, "timestep": 1})
        assert first["cache"]["mode"] == "refused"
        assert "E703" in first["cache"]["error"]
        assert "E706" in first["cache"]["error"]
        assert second["cached"] is False  # nothing memoised
        assert second["warm"] is True  # ...but the pool still serves warm
        assert first["frame_b64"] == uncached_frames["base"]
        assert second["frame_b64"] == uncached_frames["base"]
        assert service.cache_stats()["refusals"]["RE-Ra-M"]
        assert service.cache_stats()["bindings"] == {}
    finally:
        service.close()


def test_trace_records_cache_events():
    service = _service(cache_mb=8)
    try:
        service.render({"isovalue": 0.4, "timestep": 1})
        traced = service.render(
            {"isovalue": 0.4, "timestep": 1, "trace": True}
        )
        assert traced["cached"] is True
        assert traced["trace"]["events"] == 1  # one cache_hit: the tile tier
        moved = service.render(
            {"isovalue": 0.4, "timestep": 1, "trace": True,
             "view": {"azimuth": 60, "elevation": 10}}
        )
        # A new view at a cached isovalue: tile miss, triangle hit, pipeline.
        assert moved["cache"]["tiles"] == "miss"
        assert moved["cache"]["triangles"] == "hit"
        assert moved["trace"]["events"] > 2
    finally:
        service.close()


def test_warm_pool_stats_surface_cache_binding():
    service = _service(cache_mb=8)
    try:
        service.render({"isovalue": 0.4, "timestep": 1})
        stats = service.stats()
        # The binding is the service's: listed under the pool's own key,
        # beside the refusals, and the pool's block knows no cache.
        ((pool_key, pool_stats),) = stats["pools"].items()
        assert "cache" not in pool_stats
        binding = stats["cache"]["bindings"][pool_key]
        assert binding["members"] == ["E"]
        assert binding["signature"]
        assert stats["cache"]["refusals"] == {}
        shared = stats["cache"]["shared"]
        assert shared["entries"] >= 2  # triangles + one tile
    finally:
        service.close()


# -- request-keyed frames (ISSUE 15) ------------------------------------------
ISOVALUES = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55)


def test_frames_outlive_their_triangle_arrays():
    """A budget that holds every frame but not every triangle set still
    answers every repeat from the tile tier: plain LRU retires the
    triangle arrays, which a full hit no longer touches."""
    queries = [{"isovalue": iso, "timestep": 1} for iso in ISOVALUES]
    sizing = _service(cache_mb=32)
    try:
        reference = [sizing.render(dict(q))["frame_b64"] for q in queries]
        by_tier = sizing.cache_stats()["shared"]["by_tier"]
    finally:
        sizing.close()
    frames_bytes = by_tier["tiles"]["size_bytes"]
    triangles_bytes = by_tier["triangles"]["size_bytes"]
    budget = frames_bytes + triangles_bytes // 3
    service = _service(cache_mb=budget / 2**20)
    try:
        # Exploration traffic: each new query is followed by another look at
        # everything seen so far, so every frame is younger than the arrays.
        for seen, query in enumerate(queries, start=1):
            cold = service.render(dict(query))
            assert cold["cached"] is False
            assert cold["frame_b64"] == reference[seen - 1]
            for index in range(seen):
                repeat = service.render(dict(queries[index]))
                assert repeat["cached"] is True, (seen, index)
                assert repeat["cache"]["tiles"] == "hit"
                assert "triangles" not in repeat["cache"]
                assert repeat["frame_b64"] == reference[index]
        stats = service.stats()
        by_tier = stats["cache"]["shared"]["by_tier"]
        assert by_tier["tiles"]["entries"] == len(queries)
        assert by_tier["tiles"]["size_bytes"] == frames_bytes
        assert by_tier["tiles"]["evictions"] == 0
        assert by_tier["triangles"]["evictions"] > 0
        assert by_tier["triangles"]["entries"] < len(queries)
        assert stats["served_by"] == {
            "tile_hit": len(queries) * (len(queries) + 1) // 2,
            "triangle_hit": 0,
            "cold": len(queries),
        }
        assert stats["queries_served"] == sum(stats["served_by"].values())
    finally:
        service.close()


VARIANTS = {
    "isovalue": {"isovalue": 0.3},
    "timestep": {"timestep": 0},
    "azimuth": {"view": {"azimuth": 60, "elevation": 25}},
    "elevation": {"view": {"azimuth": 30, "elevation": 10}},
    "width": {"width": 24},
    "height": {"height": 24},
    "algorithm": {"algorithm": "zbuffer"},
    "merge_copies": {"merge_copies": 2},
    "dataset": {"dataset": "reseeded"},
}


def test_changing_one_request_field_never_returns_another_frame():
    base = {"isovalue": 0.4, "timestep": 1,
            "view": {"azimuth": 30, "elevation": 25}}
    scenes = [SCENE, replace(SCENE, name="reseeded", seed=8)]
    uncached = _service(scenes=scenes, max_pools=1)
    cached = _service(scenes=scenes, max_pools=1, cache_mb=32)
    try:
        assert cached.render(dict(base))["cached"] is False
        for field, change in VARIANTS.items():
            query = {**base, **change}
            expected = uncached.render(dict(query))["frame_b64"]
            first = cached.render(dict(query))
            assert first["cached"] is False, field
            assert first["frame_b64"] == expected, field
            again = cached.render(dict(query))
            assert again["cached"] is True, field
            assert again["frame_b64"] == expected, field
        assert cached.render(dict(base))["cached"] is True
    finally:
        uncached.close()
        cached.close()


_queries = st.builds(
    Query,
    scene=st.builds(
        SceneSpec,
        name=st.just("s"),
        grid=st.sampled_from([11, 13]),
        timesteps=st.sampled_from([2, 3]),
        species=st.sampled_from([1, 2]),
        nchunks=st.sampled_from([8, 27]),
        nfiles=st.sampled_from([2, 4]),
        seed=st.sampled_from([7, 8]),
    ),
    config=st.sampled_from(["R-E-Ra-M", "RE-Ra-M"]),
    algorithm=st.sampled_from(["active", "zbuffer"]),
    width=st.sampled_from([24, 32]),
    height=st.sampled_from([24, 32]),
    isovalue=st.sampled_from([0.3, 0.4, 0.4000000000000001]),
    timestep=st.sampled_from([0, 1]),
    merge_copies=st.sampled_from([1, 2]),
    orbit=st.sampled_from([None, (30.0, 25.0), (60.0, 25.0), (30.0, 10.0)]),
)


@given(one=_queries, other=_queries, signature=st.sampled_from(["a", "b"]))
@settings(max_examples=300, deadline=None)
def test_cache_keys_separate_any_two_different_requests(one, other, signature):
    tri_one, frame_one = cache_keys(signature, one)
    tri_other, frame_other = cache_keys(signature, other)
    assert (frame_one == frame_other) == (one == other)
    same_triangles = (one.scene, one.timestep, one.isovalue) == (
        other.scene, other.timestep, other.isovalue
    )
    assert (tri_one == tri_other) == same_triangles
    # the certified subgraph is part of every key
    tri_rebound, frame_rebound = cache_keys(signature + "'", one)
    assert tri_rebound != tri_one and frame_rebound != frame_one


@pytest.fixture(scope="module")
def keyer():
    """A service to ask for pool keys (it builds nothing until it renders)."""
    service = QueryService()
    yield service
    service.close()


_named = st.tuples(_queries, st.sampled_from(["s", "t"])).map(
    lambda drawn: replace(drawn[0], scene=replace(drawn[0].scene, name=drawn[1]))
)


@given(one=_named, other=_named)
@settings(max_examples=300, deadline=None)
def test_two_pool_keys_never_share_a_frame_key(keyer, one, other):
    """Why ``render`` does not look for tiles when a pool key first gets its
    binding: tiles are only ever put under a bound key, and every query
    field of the pool key is in the frame key — no other key's frame can
    be this query's."""
    if keyer._pool_key(one) != keyer._pool_key(other):
        assert cache_keys("sig", one)[1] != cache_keys("sig", other)[1]


def test_first_query_of_a_pool_key_is_a_tile_miss_without_a_lookup(
    uncached_frames,
):
    """Same request at another image size is another pool key: nothing it
    could find in the shared tile tier, so nothing is looked up there."""
    base = {"isovalue": 0.4, "timestep": 1}
    service = _service(cache_mb=32)

    def tile_lookups():
        tier = service.cache_stats()["shared"]["by_tier"]["tiles"]
        return tier["hits"] + tier["misses"]

    try:
        first = service.render(dict(base))
        assert first["cache"]["tiles"] == "miss" and tile_lookups() == 0
        resized = service.render({**base, "width": 24})
        assert resized["cached"] is False
        assert resized["cache"]["tiles"] == "miss"
        assert resized["cache"]["triangles"] == "hit"
        assert tile_lookups() == 0
        # bound keys look their frames up: one lookup each, both hits
        assert service.render(dict(base))["cached"] is True
        assert service.render({**base, "width": 24})["cached"] is True
        assert tile_lookups() == 2
        assert first["frame_b64"] == uncached_frames["base"]
    finally:
        service.close()


def test_evicted_pool_does_not_take_its_frames_with_it(uncached_frames):
    base = {"isovalue": 0.4, "timestep": 1}
    view = {**base, "view": {"azimuth": 60, "elevation": 10}}
    service = _service(cache_mb=32, max_pools=1)
    try:
        service.render(dict(base))
        service.render({**base, "width": 24})  # evicts the 32x32 pool
        assert len(service.stats()["pools"]) == 1
        # answered from the tile tier, without rebuilding the pool
        repeat = service.render(dict(base))
        assert repeat["cached"] is True
        assert repeat["cache"]["tiles"] == "hit"
        assert "triangles" not in repeat["cache"]
        assert repeat["frame_b64"] == uncached_frames["base"]
        # a new view rebuilds it cold, on the cached triangles ...
        moved = service.render(dict(view))
        assert moved["warm"] is False
        assert moved["cache"]["tiles"] == "miss"
        assert moved["cache"]["triangles"] == "hit"
        assert moved["frame_b64"] == uncached_frames["view"]
        # ... and the first query after the rebuild is a tile hit again
        after = service.render(dict(base))
        assert after["cached"] is True
        assert "triangles" not in after["cache"]
        assert after["frame_b64"] == uncached_frames["base"]
        # (triangles are image-size independent: the 24-wide query hit them)
        assert service.stats()["served_by"] == {
            "tile_hit": 2, "triangle_hit": 2, "cold": 1
        }
    finally:
        service.close()
