"""End-to-end tests for the serve-path result cache.

Correctness bar: a cached response must be byte-identical (same PPM
payload) to what an uncached service of the same pipeline renders for the
same query — for every configuration, algorithm and raster copy count, and
under eviction pressure.  A miss runs the whole pipeline; a repeat is one
tile lookup.
"""

import json
import multiprocessing
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configurations import ALGORITHMS, CONFIGURATIONS
from repro.errors import ConfigurationError
from repro.serve import Query, QueryService, SceneSpec, frame_key

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
def reference():
    """``reference(config, algorithm, query)``: the response of an uncached
    two-copy service running that pipeline (one such service open at a
    time)."""
    services, responses = {}, {}

    def render(config, algorithm, query):
        key = (config, algorithm, json.dumps(query, sort_keys=True))
        if key not in responses:
            if (config, algorithm) not in services:
                for service in services.values():
                    service.close()
                services.clear()
                services[config, algorithm] = _service(
                    config=config, algorithm=algorithm
                )
            responses[key] = services[config, algorithm].render(dict(query))
        return responses[key]

    yield render
    for service in services.values():
        service.close()


@pytest.fixture(scope="module")
def uncached_frames(uncached):
    """Reference frames, one per query shape."""
    queries = {
        "base": {"isovalue": 0.4, "timestep": 1},
        "view": {"isovalue": 0.4, "timestep": 1,
                 "view": {"azimuth": 60, "elevation": 10}},
        "iso2": {"isovalue": 0.3, "timestep": 0},
    }
    return {
        name: uncached.render(dict(query))["frame_b64"]
        for name, query in queries.items()
    }


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_cached_responses_are_bit_exact(reference, config, algorithm, copies):
    """One probe path whatever node carries Extract: first sight and a new
    view miss the tile tier and run the pipeline, a repeat is one tile
    lookup — each frame the uncached (two-copy) service's."""
    base = {"isovalue": 0.4, "timestep": 1}
    moved = {**base, "view": {"azimuth": 60, "elevation": 10}}
    service = _service(
        cache_mb=32, copies=copies, config=config, algorithm=algorithm
    )
    try:
        first = service.render(dict(base))
        second = service.render(dict(base))
        third = service.render(dict(moved))
        for query, responses in ((base, (first, second)), (moved, (third,))):
            expected = reference(config, algorithm, query)
            for response in responses:
                assert response["frame_b64"] == expected["frame_b64"]
                assert response["active_pixels"] == expected["active_pixels"]
        assert third["frame_b64"] != first["frame_b64"]
        # a hit replays the merge facts of the run that made the frame
        assert second["buffers_merged"] == first["buffers_merged"]
        assert first["cached"] is False
        assert first["cache"] == {
            "mode": "shared", "tiles": "miss", "bytes_saved": 0,
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
            "mode": "shared", "tiles": "miss", "bytes_saved": 0,
        }
        # ... and nothing else: no other tier is probed or filled
        assert by_tier["triangles"] == dict.fromkeys(by_tier["triangles"], 0)
        assert by_tier["tiles"]["entries"] == 2  # one entry per frame
    finally:
        service.close()


def test_a_tile_miss_runs_read_and_extract_in_their_copies(reference):
    """A cached miss is the uncached run: Read streams the chunks the
    isosurface can cross from the store, Extract extracts them in its
    copies, and every stream carries what it carries uncached."""
    query = {"isovalue": 0.4, "timestep": 1}
    for config in CONFIGURATIONS:
        service = _service(cache_mb=32, config=config, algorithm="active")
        try:
            miss = service.render(dict(query))
            stats = service.stats()
        finally:
            service.close()
        expected = reference(config, "active", query)
        assert miss["cached"] is False, config
        assert miss["cache"]["tiles"] == "miss", config
        assert miss["frame_b64"] == expected["frame_b64"], config
        assert miss["streams"] == expected["streams"], config
        assert miss["chunks"] == expected["chunks"], config
        read = [n for n in miss["streams"] if n.startswith("R->")]
        assert read == {
            "R-E-Ra-M": ["R->E"], "R-ERa-M": ["R->ERa"],
        }.get(config, []), config
        for name in read:
            assert miss["streams"][name][0] == miss["chunks"][0] > 0
        assert stats["cache"]["shared"]["by_tier"]["tiles"]["entries"] == 1
        assert stats["served_by"] == {"tile_hit": 0, "cold": 1}


def test_cached_view_queries_do_not_collide(uncached_frames):
    service = _service(cache_mb=32)
    try:
        base = service.render({"isovalue": 0.4, "timestep": 1})
        view = service.render(
            {"isovalue": 0.4, "timestep": 1,
             "view": {"azimuth": 60, "elevation": 10}}
        )
        # Same isovalue, different camera: its own tile entry.
        assert view["cache"]["tiles"] == "miss"
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
    service = _service(cache_mb=0.125)  # every frame, little to spare
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
            with pytest.raises(ConfigurationError, match="unknown request field"):
                service.render({"isovalue": 0.4, f"isovalue-{index}": 0.3})
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
        for bad in ({"dataset": "nope"}, {"timestep": -1}, {"view": []}):
            with pytest.raises(ConfigurationError):
                fresh.render(bad)
        stats = fresh.stats()
        assert stats["stores"] == {} and stats["pools"] == {}
        shared = stats["cache"]["shared"]
        assert shared["hits"] == shared["misses"] == 0
    finally:
        fresh.close()


@pytest.mark.parametrize(
    "field, value",
    [("config", "RERa-M"), ("algorithm", "zbuffer"), ("width", 24),
     ("height", 24), ("isovalu", 0.4)],
    ids=["config", "algorithm", "width", "height", "isovalu"],
)
def test_a_request_naming_another_field_is_refused(field, value):
    """The pipeline is the service's: a query asking for another
    configuration, algorithm or size — or misspelling a field — is a bad
    request that names the field, not the service's frame under its key.
    It is refused before a store, a pool or a cache probe is made; the
    certificate was made with the service."""
    service = _service(cache_mb=8)
    try:
        with pytest.raises(
            ConfigurationError, match=f"unknown request field {field!r}"
        ):
            service.render({"isovalue": 0.3, field: value})
        stats = service.stats()
        assert stats["stores"] == {} and stats["pools"] == {}
        assert stats["served_by"] == {"tile_hit": 0, "cold": 0}
        assert stats["cache"]["members"] == ["E"]  # certified at construction
        shared = stats["cache"]["shared"]
        assert shared["hits"] == shared["misses"] == shared["insertions"] == 0
    finally:
        service.close()


def test_refused_certificate_still_serves(monkeypatch, uncached_frames):
    """The certifier is asked about the Extract *definition*: one that is
    not provably pure is refused for the whole service, which then serves
    every query uncached."""
    from repro.viz import app

    monkeypatch.setitem(
        app._STAGES, "E", replace(app._STAGES["E"], effects="stateful")
    )
    service = _service(cache_mb=8, config="RE-Ra-M")
    separate = _service(cache_mb=8)  # Extract a node of its own, the same
    try:
        first = service.render({"isovalue": 0.4, "timestep": 1})
        second = service.render({"isovalue": 0.4, "timestep": 1})
        other = separate.render({"isovalue": 0.4, "timestep": 1})
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
        separate.close()


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
        # A new view at a cached isovalue: tile miss, then the pipeline.
        assert moved["cache"] == {
            "mode": "shared", "tiles": "miss", "bytes_saved": 0,
        }
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
        # certified at construction, before any query
        assert service.cache_stats()["members"] == ["E"]
        service.render({"isovalue": 0.4, "timestep": 1})
        other.render({"isovalue": 0.4, "timestep": 1})
        stats = service.stats()
        # The binding is the service's, and a pool's block knows no cache.
        assert list(stats["pools"]) == ["unit"]
        assert "cache" not in stats["pools"]["unit"]
        assert stats["cache"]["members"] == ["E"]
        assert stats["cache"]["signature"]
        assert "refused" not in stats["cache"]
        assert stats["cache"]["shared"]["entries"] == 1  # the frame
        for fact in ("members", "signature"):
            assert other.cache_stats()[fact] == stats["cache"][fact]
    finally:
        service.close()
        other.close()


# -- request-keyed frames -----------------------------------------------------
ISOVALUES = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55)


def test_tile_hit_encodes_nothing(monkeypatch):
    """The tile tier holds the frame as the response carries it: a repeat
    is one lookup, answered without a PPM or base64 pass."""
    query = {"isovalue": 0.4, "timestep": 1}
    service = _service(cache_mb=32)
    try:
        first = service.render(dict(query))

        def refuse(*_args, **_kw):
            raise AssertionError("a tile hit encoded its frame")

        monkeypatch.setattr("repro.serve.ppm_bytes", refuse)
        monkeypatch.setattr("repro.serve.base64.b64encode", refuse)
        repeat = service.render(dict(query))
        assert repeat["cached"] is True
        assert repeat["frame_b64"] == first["frame_b64"]
    finally:
        service.close()


def test_tiles_are_charged_encoded():
    """A tile is charged the base64 it holds, 4/3 of the image: a budget
    that fits four raw frames fits only two encoded ones, and a hit saves
    exactly the encoded entry."""
    views = [
        {"isovalue": 0.4, "timestep": 1,
         "view": {"azimuth": azimuth, "elevation": 25}}
        for azimuth in (0, 45, 90, 135)
    ]
    sizing = _service(cache_mb=32)
    try:
        sizing.render(dict(views[0]))
        by_tier = sizing.cache_stats()["shared"]["by_tier"]
    finally:
        sizing.close()
    raw = 32 * 32 * 3 + 32  # what an image-holding tile would be charged
    encoded = by_tier["tiles"]["size_bytes"]
    assert encoded == 4148  # base64 of a 3,085-byte P6 is 4,116 characters
    budget = len(views) * raw
    service = _service(cache_mb=budget / 2**20)
    try:
        responses = [service.render(dict(view)) for view in views]
        stats = service.cache_stats()["shared"]
        # the oldest frames go: four frames, room for two
        assert stats["evictions"] == stats["by_tier"]["tiles"]["evictions"] == 2
        assert stats["by_tier"]["tiles"]["entries"] == 2
        hit = service.render(dict(views[-1]))
        assert hit["cached"] is True
        assert hit["cache"]["bytes_saved"] == encoded
        assert hit["cache"]["bytes_saved"] == len(hit["frame_b64"]) + 32
        assert hit["frame_b64"] == responses[-1]["frame_b64"]
    finally:
        service.close()


VARIANTS = {
    "isovalue": {"isovalue": 0.3},
    "timestep": {"timestep": 0},
    "azimuth": {"view": {"azimuth": 60, "elevation": 25}},
    "elevation": {"view": {"azimuth": 30, "elevation": 10}},
    "dataset": {"dataset": "reseeded"},
}


def test_changing_one_request_field_never_returns_another_frame():
    base = {"isovalue": 0.4, "timestep": 1,
            "view": {"azimuth": 30, "elevation": 25}}
    scenes = [SCENE, replace(SCENE, name="reseeded", seed=8)]
    uncached = _service(scenes=scenes)
    cached = _service(scenes=scenes, cache_mb=32)
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


#: every field of a query drawn, the scene's too (a field left at its
#: default would make the property below vacuous for it)
_queries = st.builds(
    Query,
    scene=st.builds(
        SceneSpec,
        name=st.sampled_from(["s", "t"]),
        grid=st.sampled_from([11, 13]),
        timesteps=st.sampled_from([2, 3]),
        species=st.sampled_from([1, 2]),
        nchunks=st.sampled_from([8, 27]),
        nfiles=st.sampled_from([2, 4]),
        seed=st.sampled_from([7, 8]),
        isovalue=st.sampled_from([0.35, 0.4]),
    ),
    config=st.sampled_from(["R-E-Ra-M", "RE-Ra-M"]),
    algorithm=st.sampled_from(["active", "zbuffer"]),
    width=st.sampled_from([24, 32]),
    height=st.sampled_from([24, 32]),
    isovalue=st.sampled_from([0.3, 0.4, 0.4000000000000001]),
    timestep=st.sampled_from([0, 1]),
    orbit=st.sampled_from([None, (30.0, 25.0), (60.0, 25.0), (30.0, 10.0)]),
)


def _one_field_moves(one, other):
    """``one`` with each field, of the query or of its scene, taken alone
    from ``other``."""
    for field in fields(Query):
        if field.name != "scene":
            yield replace(one, **{field.name: getattr(other, field.name)})
    for field in fields(SceneSpec):
        scene = replace(one.scene, **{field.name: getattr(other.scene, field.name)})
        yield replace(one, scene=scene)


@given(one=_queries, other=_queries, signature=st.sampled_from(["a", "b"]))
@settings(max_examples=300, deadline=None)
def test_cache_keys_separate_any_two_different_requests(one, other, signature):
    key = frame_key(signature, one)
    assert (key == frame_key(signature, other)) == (one == other)
    for moved in _one_field_moves(one, other):
        assert (frame_key(signature, moved) == key) == (moved == one)
    # the certified subgraph is part of every key
    assert frame_key(signature + "'", one) != key


@given(one=_queries, other=_queries)
@settings(max_examples=300, deadline=None)
def test_two_scenes_never_share_a_frame_key(one, other):
    """Why the first query of a pool can only miss the tile tier: a pool is
    the scene's, keyed by its name, and the scene is in the frame key — no
    other pool's frame can be this query's."""
    if one.scene.name != other.scene.name:
        assert frame_key("sig", one) != frame_key("sig", other)


def test_first_query_of_a_scene_is_one_tile_lookup_a_miss(uncached_frames):
    """The same request on another scene is another pool: it probes like
    any query — exactly one tile lookup, which can only miss."""
    base = {"isovalue": 0.4, "timestep": 1}
    other = {**base, "dataset": "reseeded"}
    service = _service(
        scenes=[SCENE, replace(SCENE, name="reseeded", seed=8)], cache_mb=32
    )

    def tile_lookups():
        tier = service.cache_stats()["shared"]["by_tier"]["tiles"]
        return tier["hits"], tier["misses"]

    try:
        first = service.render(dict(base))
        assert first["cache"]["tiles"] == "miss" and tile_lookups() == (0, 1)
        reseeded = service.render(dict(other))
        assert reseeded["cached"] is False and reseeded["warm"] is False
        assert reseeded["cache"]["tiles"] == "miss"
        assert tile_lookups() == (0, 2)
        # repeats: one lookup each, both hits
        assert service.render(dict(base))["cached"] is True
        assert service.render(dict(other))["cached"] is True
        assert tile_lookups() == (2, 2)
        assert first["frame_b64"] == uncached_frames["base"]
    finally:
        service.close()


def test_broken_pool_does_not_take_its_frames_with_it(uncached_frames):
    base = {"isovalue": 0.4, "timestep": 1}
    view = {**base, "view": {"azimuth": 60, "elevation": 10}}
    service = _service(cache_mb=32)
    try:
        service.render(dict(base))
        service._pools["unit"].close()  # as a pool whose worker died
        # answered from the tile tier, without rebuilding the pool
        repeat = service.render(dict(base))
        assert repeat["cached"] is True
        assert repeat["cache"]["tiles"] == "hit"
        assert repeat["frame_b64"] == uncached_frames["base"]
        assert service.stats()["pools"]["unit"]["closed"] is True
        # a new view rebuilds it cold ...
        moved = service.render(dict(view))
        assert moved["warm"] is False
        assert moved["cache"]["tiles"] == "miss"
        assert moved["frame_b64"] == uncached_frames["view"]
        # ... and the first query after the rebuild is a tile hit again
        after = service.render(dict(base))
        assert after["cached"] is True
        assert after["frame_b64"] == uncached_frames["base"]
        assert service.stats()["served_by"] == {"tile_hit": 2, "cold": 2}
    finally:
        service.close()
