"""End-to-end tests for the serve-path result cache.

Correctness bar: a cached response must be byte-identical (same PPM
payload) to what an uncached service renders for the same query — for
every configuration, algorithm and merge fan-out, under eviction pressure,
and for both tiers.
"""

import multiprocessing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configurations import ALGORITHMS, CONFIGURATIONS
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
def uncached():
    """The module's cache-free service: where reference frames come from."""
    service = _service()
    yield service
    service.close()


@pytest.fixture(scope="module")
def uncached_frames(uncached):
    """Reference frames, one per query shape."""
    queries = {
        "base": {"isovalue": 0.4, "timestep": 1},
        "view": {"isovalue": 0.4, "timestep": 1,
                 "view": {"azimuth": 60, "elevation": 10}},
        "iso2": {"isovalue": 0.3, "timestep": 0},
        "tiled": {"isovalue": 0.4, "timestep": 1, "merge_copies": 2},
    }
    return {
        name: uncached.render(dict(query))["frame_b64"]
        for name, query in queries.items()
    }


@pytest.mark.parametrize("merge_copies", [1, 2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_cached_responses_are_bit_exact(uncached, config, algorithm, merge_copies):
    """One probe path whatever node carries Extract: first sight misses both
    tiers, a repeat is one tile lookup, a new view rides the cached
    triangles — each frame the uncached service's."""
    base = {"isovalue": 0.4, "timestep": 1, "config": config,
            "algorithm": algorithm, "merge_copies": merge_copies}
    moved = {**base, "view": {"azimuth": 60, "elevation": 10}}
    service = _service(cache_mb=32)
    try:
        first = service.render(dict(base))
        second = service.render(dict(base))
        third = service.render(dict(moved))
        for query, responses in ((base, (first, second)), (moved, (third,))):
            expected = uncached.render(dict(query))
            for response in responses:
                assert response["frame_b64"] == expected["frame_b64"]
                assert response["active_pixels"] == expected["active_pixels"]
        assert third["frame_b64"] != first["frame_b64"]
        # a hit replays the merge facts of the run that made the frame
        assert second["buffers_merged"] == first["buffers_merged"]
        assert first["cached"] is False
        assert first["cache"] == {
            "mode": "shared", "tiles": "miss", "triangles": "miss",
            "bytes_saved": 0,
        }
        assert second["cached"] is True
        # A full hit is answered by the tile tier alone.
        assert second["cache"] == {
            "mode": "shared", "tiles": "hit",
            "bytes_saved": second["cache"]["bytes_saved"],
        }
        assert second["cache"]["bytes_saved"] > 0
        assert second["makespan_s"] == 0.0  # no pipeline run
        by_tier = service.cache_stats()["shared"]["by_tier"]
        assert by_tier["tiles"]["hits"] == 1  # the repeat: one tile lookup
        assert by_tier["tiles"]["misses"] == 2  # (first sight, new view)
        assert third["cached"] is False
        assert third["cache"] == {
            "mode": "shared", "tiles": "miss", "triangles": "hit",
            "bytes_saved": third["cache"]["bytes_saved"],
        }
        # ... and nothing else: the triangle tier saw the two pipeline runs
        assert by_tier["triangles"]["hits"] == 1
        assert by_tier["triangles"]["misses"] == 1
        assert by_tier["tiles"]["entries"] == 2  # one entry per frame
    finally:
        service.close()


def test_triangles_extracted_under_one_configuration_serve_another(uncached):
    """The triangle key never held the configuration (the frame key does):
    what one grouping of the stages extracted, every other injects."""
    base = {"isovalue": 0.4, "timestep": 1}
    service = _service(cache_mb=32)
    try:
        first = service.render({**base, "config": CONFIGURATIONS[0]})
        assert first["cache"]["triangles"] == "miss"
        for config in CONFIGURATIONS[1:]:
            query = {**base, "config": config}
            other = service.render(dict(query))
            assert other["cached"] is False, config
            assert other["cache"]["tiles"] == "miss", config
            assert other["cache"]["triangles"] == "hit", config
            assert other["frame_b64"] == uncached.render(query)["frame_b64"]
        stats = service.stats()
        by_tier = stats["cache"]["shared"]["by_tier"]
        assert by_tier["triangles"]["entries"] == 1
        assert by_tier["tiles"]["entries"] == len(CONFIGURATIONS)
        assert stats["served_by"] == {
            "tile_hit": 0, "triangle_hit": len(CONFIGURATIONS) - 1, "cold": 1
        }
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


def test_invalid_requests_leave_the_cache_alone():
    """A request that fails validation is refused before any probe: a flood
    of distinct bad ones — the negative tier stored each, and they evicted
    the frames — changes no cache counter and costs no frame."""
    queries = [{"isovalue": iso, "timestep": 1} for iso in ISOVALUES]
    service = _service(cache_mb=0.125)  # every frame and set, little to spare
    try:
        for query in queries:
            assert service.render(dict(query))["cached"] is False
        before = service.cache_stats()["shared"]
        assert before["evictions"] == 0
        assert before["by_tier"]["tiles"]["entries"] == len(queries)
        pools = sorted(service.stats()["pools"])
        for index in range(2000):
            with pytest.raises(ConfigurationError, match="unknown dataset"):
                service.render({"dataset": f"missing-{index}"})
            with pytest.raises(ConfigurationError, match="out of range"):
                service.render({"timestep": SCENE.timesteps + index})
            # refused by _parse, not by the pool build behind a counted probe
            with pytest.raises(ConfigurationError, match="algorithm must be"):
                service.render({"algorithm": f"foo-{index}"})
            with pytest.raises(ConfigurationError, match="merge_copies must be"):
                service.render({"merge_copies": 33 + index})  # 32-px frame
        assert service.cache_stats()["shared"] == before
        assert sorted(service.stats()["pools"]) == pools
        for query in queries:
            repeat = service.render(dict(query))
            assert repeat["cached"] is True
            assert repeat["cache"]["tiles"] == "hit"
        after = service.cache_stats()["shared"]
        for counter in ("entries", "size_bytes", "evictions", "insertions"):
            assert after[counter] == before[counter], counter
    finally:
        service.close()
    fresh = _service(cache_mb=0.125)  # nothing served yet: no store, no pool
    try:
        for bad in ({"algorithm": "foo"}, {"merge_copies": 40},
                    {"merge_copies": 9, "height": 8}):
            with pytest.raises(ConfigurationError):
                fresh.render(bad)
        stats = fresh.stats()
        assert stats["stores"] == {} and stats["pools"] == {}
        shared = stats["cache"]["shared"]
        assert shared["hits"] == shared["misses"] == 0
    finally:
        fresh.close()


def test_refused_certificate_still_serves(monkeypatch, uncached_frames):
    """The certifier is asked about the Extract *definition*: one that is
    not provably pure is refused for the whole service, which then serves
    every query uncached."""
    from repro.viz import app

    monkeypatch.setitem(
        app._STAGES, "E", replace(app._STAGES["E"], effects="stateful")
    )
    service = _service(cache_mb=8, config="RE-Ra-M")
    try:
        first = service.render({"isovalue": 0.4, "timestep": 1})
        second = service.render({"isovalue": 0.4, "timestep": 1})
        other = service.render(
            {"isovalue": 0.4, "timestep": 1, "config": "R-E-Ra-M"}
        )
        for response in (first, second, other):
            assert response["cache"]["mode"] == "refused"
            assert "E703" in response["cache"]["error"]
            assert "E706" in response["cache"]["error"]
            assert response["cached"] is False  # nothing memoised
            assert response["frame_b64"] == uncached_frames["base"]
        assert second["warm"] is True  # ...but the pool still serves warm
        stats = service.cache_stats()
        assert stats["refused"] == first["cache"]["error"]
        assert "signature" not in stats and "members" not in stats
        shared = stats["shared"]
        assert shared["insertions"] == shared["entries"] == 0  # nothing put
        assert shared["hits"] == shared["misses"] == 0  # nothing looked up
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


def test_stats_show_one_certificate_per_service():
    """One certificate per service, about the stage definition: the same
    signature whatever the service's pipelines look like."""
    service = _service(cache_mb=8)
    other = _service(
        cache_mb=8, config="RERa-M", algorithm="zbuffer", width=24, height=40
    )
    try:
        assert "signature" not in service.cache_stats()  # asked at first use
        service.render({"isovalue": 0.4, "timestep": 1})
        other.render({"isovalue": 0.4, "timestep": 1})
        stats = service.stats()
        # The binding is the service's, and a pool's block knows no cache.
        ((_pool_key, pool_stats),) = stats["pools"].items()
        assert "cache" not in pool_stats
        assert stats["cache"]["members"] == ["E"]
        assert stats["cache"]["signature"]
        assert "refused" not in stats["cache"]
        assert stats["cache"]["shared"]["entries"] == 2  # triangles + frame
        for fact in ("members", "signature"):
            assert other.cache_stats()[fact] == stats["cache"][fact]
    finally:
        service.close()
        other.close()


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
    """Why the first query of a pool key can only miss the tile tier: every
    query field of the pool key is in the frame key — no other key's frame
    can be this query's."""
    if keyer._pool_key(one) != keyer._pool_key(other):
        assert cache_keys("sig", one)[1] != cache_keys("sig", other)[1]


def test_first_query_of_a_pool_key_is_one_tile_lookup_a_miss(uncached_frames):
    """Same request at another image size is another pool key: it probes
    like any query — exactly one tile lookup, which can only miss."""
    base = {"isovalue": 0.4, "timestep": 1}
    service = _service(cache_mb=32)

    def tile_lookups():
        tier = service.cache_stats()["shared"]["by_tier"]["tiles"]
        return tier["hits"], tier["misses"]

    try:
        first = service.render(dict(base))
        assert first["cache"]["tiles"] == "miss" and tile_lookups() == (0, 1)
        resized = service.render({**base, "width": 24})
        assert resized["cached"] is False
        assert resized["cache"]["tiles"] == "miss"
        assert resized["cache"]["triangles"] == "hit"
        assert tile_lookups() == (0, 2)
        # repeats: one lookup each, both hits
        assert service.render(dict(base))["cached"] is True
        assert service.render({**base, "width": 24})["cached"] is True
        assert tile_lookups() == (2, 2)
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
