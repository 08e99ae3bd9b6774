"""The served read path: scenes live in a declustered store the service owns.

A scene is generated once into a temporary :class:`DeclusteredStore`; Read
copies stream memory-mapped chunks from it and the codec hands them to
Extract by reference.  These tests hold the frames to the in-memory
generator bit for bit, the store directory to its lifetime, and the
front-end process to mapping none of it.
"""

import gc
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.configurations import CONFIGURATIONS
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import ThreadedEngine
from repro.errors import ReproError
from repro.serve import Query, QueryService, SceneSpec, cache_keys, ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.profile import DatasetProfile

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the query service pools need the fork start method",
)

SCENE = SceneSpec(
    "store", grid=17, timesteps=2, species=2, nchunks=8, nfiles=4, seed=7,
    isovalue=0.35,
)
SIZE = 48
QUERY = {"isovalue": 0.4, "timestep": 1, "view": {"azimuth": 60, "elevation": 10}}
ALGORITHMS = ("active", "zbuffer")


def _service(**kw):
    defaults = dict(scenes=[SCENE], width=SIZE, height=SIZE, copies=2)
    defaults.update(kw)
    return QueryService(**defaults)


def _frame(response):
    import base64

    return base64.b64decode(response["frame_b64"])


def _store_of(service, scene=SCENE):
    return service.stats()["stores"][scene.name]


@pytest.fixture(scope="module")
def generator_frames():
    """Cold ``ThreadedEngine`` frames of QUERY over the in-memory generator,
    one per (configuration, algorithm, merge copies)."""
    dataset = ParSSimDataset(
        SCENE.shape, timesteps=SCENE.timesteps, species=SCENE.species,
        seed=SCENE.seed,
    )
    profile = DatasetProfile.measured(
        SCENE.name, dataset, nchunks=SCENE.nchunks, nfiles=SCENE.nfiles,
        isovalue=SCENE.isovalue,
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    uow = {
        "isovalue": QUERY["isovalue"],
        "timestep": QUERY["timestep"],
        "camera": Camera.orbit(
            SCENE.shape, azimuth_deg=60, elevation_deg=10, width=SIZE,
            height=SIZE,
        ),
    }

    def render(config, algorithm, merge_copies=1):
        app = IsosurfaceApp(
            profile, storage, width=SIZE, height=SIZE, algorithm=algorithm,
            dataset=dataset, isovalue=SCENE.isovalue, merge_copies=merge_copies,
        )
        engine = ThreadedEngine(
            app.graph(config), app.placement(config, copies_per_host=2),
            policy="DD", policy_overrides=app.policy_overrides(config),
        )
        return ppm_bytes(engine.run_cycles([uow])[0].result.image)

    frames = {
        (config, algorithm, 1): render(config, algorithm)
        for config in CONFIGURATIONS
        for algorithm in ALGORITHMS
    }
    frames["R-E-Ra-M", "zbuffer", 2] = render("R-E-Ra-M", "zbuffer", 2)
    assert len(set(frames.values())) == 1  # one scene, one frame
    assert max(frames["R-E-Ra-M", "zbuffer", 1][len(b"P6 48 48 255\n"):]) > 0
    return frames


@pytest.fixture(scope="module")
def served():
    service = _service(max_pools=2)
    yield service
    service.close()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_served_frames_are_the_generators(served, generator_frames, config, algorithm):
    """Every grouping of the stages reads the store — through an R->E stream
    or fused with Extract — and renders the generator's frame."""
    response = served.render(
        {**QUERY, "config": config, "algorithm": algorithm}
    )
    assert _frame(response) == generator_frames[config, algorithm, 1]
    read_streams = [
        name for name in response["streams"] if name.startswith("R->")
    ]
    assert read_streams == {
        "R-E-Ra-M": ["R->E"], "R-ERa-M": ["R->ERa"],
    }.get(config, [])
    for name in read_streams:
        profile = served._scene_assets(SCENE)[1]
        # stream accounting stays logical: the chunks' bytes, not a descriptor's
        assert response["streams"][name] == [
            len(profile.chunks), profile.bytes_per_timestep,
        ]


def test_cached_service_serves_the_generators_frames(generator_frames):
    """Triangle-tier misses extract from the store serve-side and inject;
    hits inject the cached arrays; tiles assemble — all the same frame."""
    expected = generator_frames["R-E-Ra-M", "zbuffer", 1]
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    try:
        miss = service.render(dict(QUERY))
        assert miss["cache"]["triangles"] == "miss"
        assert "R->E" in miss["streams"]  # carries the injected triangles
        other_view = service.render(
            {**QUERY, "view": {"azimuth": 200, "elevation": -20}}
        )
        assert other_view["cache"]["triangles"] == "hit"
        tiled = service.render({**QUERY, "merge_copies": 2})
        assert tiled["cache"] == {
            "mode": "shared", "tiles": "miss", "triangles": "hit",
            "bytes_saved": tiled["cache"]["bytes_saved"],
        }
        hit = service.render(dict(QUERY))
        assert hit["cached"] is True
        for response in (miss, tiled, hit):
            assert _frame(response) == expected
        assert _frame(other_view) != expected
    finally:
        service.close()
    uncached = _service(config="R-E-Ra-M", algorithm="zbuffer", merge_copies=2)
    try:
        assert (
            _frame(uncached.render(dict(QUERY)))
            == generator_frames["R-E-Ra-M", "zbuffer", 2]
        )
    finally:
        uncached.close()


def test_cache_keys_are_those_of_the_in_memory_scene():
    """The store materialises the same scene facts, so nothing about it
    enters a key: these are the digests the generator-backed service made."""
    query = Query(SCENE, "R-E-Ra-M", "zbuffer", 48, 48, 0.4, 1, 1, (60.0, 10.0))
    assert cache_keys("sig", query) == (
        "93e775b2379325e8ba1eb871", "41a9894a3012b243644e792d",
    )
    query = Query(SCENE, "R-E-Ra-M", "active", 32, 32, 0.3, 0, 2, None)
    assert cache_keys("sig", query) == (
        "f144bf06193913327d363e75", "6ab6d1fa450c9a0128a69872",
    )


def test_read_to_extract_stream_creates_no_segment(tmp_path, monkeypatch):
    """Chunks over the codec's threshold reach Extract as file regions: the
    only segments a query creates carry triangles and framebuffer slabs."""
    from multiprocessing import shared_memory

    log = tmp_path / "segments.log"

    class LoggedSharedMemory(shared_memory.SharedMemory):
        def __init__(self, name=None, create=False, size=0):
            if create:  # forked copies append whole short lines
                with open(log, "a") as fh:
                    fh.write(f"{size}\n")
            super().__init__(name=name, create=create, size=size)

    # patched before the pool forks, so every copy logs what it creates
    monkeypatch.setattr(shared_memory, "SharedMemory", LoggedSharedMemory)
    log.touch()
    scene = SceneSpec(
        "big-chunks", grid=53, timesteps=1, species=1, nchunks=8, nfiles=4,
        seed=7, isovalue=0.35,
    )
    service = _service(
        scenes=[scene], config="R-E-Ra-M", algorithm="zbuffer", width=64,
        height=64,
    )
    try:
        response = service.render({"isovalue": 0.3})
        chunk_sizes = {c.nbytes for c in service._scene_assets(scene)[1].chunks}
    finally:
        service.close()
    assert min(chunk_sizes) >= 64 * 1024  # the R->E buffers are out-of-band
    assert response["streams"]["R->E"][0] == 8
    created = [int(line) for line in log.read_text().split()]
    assert created, "the triangle and slab streams still use segments"
    assert not chunk_sizes & set(created)
    assert len(created) <= (
        response["streams"]["E->Ra"][0] + response["streams"]["Ra->M"][0]
    )


# -- the front-end keeps none of the store mapped ------------------------------
def _mapped_under(directory):
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if str(directory) in line})


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_triangle_misses_leave_no_store_file_mapped():
    """Serve-side extraction reads through a handle scoped to the call; a
    long-lived one would end up holding the whole store in this process."""
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    try:
        for timestep in range(SCENE.timesteps):
            response = service.render({"isovalue": 0.4, "timestep": timestep})
            assert response["cache"]["triangles"] == "miss"
        assert _mapped_under(_store_of(service)["path"]) == []
    finally:
        service.close()


# -- store lifetime -------------------------------------------------------------
def test_store_is_made_at_first_use_and_removed_by_close():
    service = _service()
    assert service.stats()["stores"] == {}
    try:
        service.render(dict(QUERY))
        store = _store_of(service)
        path = Path(store["path"])
        profile = service._scene_assets(SCENE)[1]
        assert path.is_dir()
        assert path.name.startswith("repro-serve-")
        assert store["files"] == SCENE.timesteps * SCENE.nfiles
        assert store["files"] == len(list(path.glob("*.bin")))
        assert store["bytes"] == SCENE.timesteps * profile.bytes_per_timestep
    finally:
        service.close()
    assert not path.exists()
    assert service.stats()["stores"] == {}


def test_two_services_have_distinct_stores():
    one, other = _service(), _service()
    try:
        one.render(dict(QUERY))
        other.render(dict(QUERY))
        first, second = Path(_store_of(one)["path"]), Path(_store_of(other)["path"])
        assert first != second
        one.close()
        assert not first.exists() and second.is_dir()
        assert other.render(dict(QUERY))["ok"]
    finally:
        one.close()
        other.close()
    assert not second.exists()


def test_close_removes_the_store_when_the_first_pool_build_raised():
    service = _service()
    try:
        with pytest.raises(ReproError):
            service.render({**QUERY, "algorithm": "no-such-algorithm"})
        path = Path(_store_of(service)["path"])
        assert path.is_dir()  # the scene was materialised before the pool failed
    finally:
        service.close()
    assert not path.exists()


def test_failed_materialisation_leaves_no_directory(monkeypatch, tmp_path):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def explode(self, chunk, timestep, species=0):
        raise RuntimeError("generator exploded")

    monkeypatch.setattr(ParSSimDataset, "chunk_field", explode)
    service = _service()
    try:
        with pytest.raises(RuntimeError, match="generator exploded"):
            service.render(dict(QUERY))
        assert service.stats()["stores"] == {}
        assert list(tmp_path.iterdir()) == []
    finally:
        service.close()


def test_dropped_service_takes_its_store_with_it():
    """Several callers never call ``close()``: the directory's own finalizer
    removes it once the service is gone."""
    service = _service()
    service.render(dict(QUERY))
    path = Path(_store_of(service)["path"])
    pools = service.pools  # kept, to retire the workers afterwards
    assert path.is_dir()
    with pytest.warns(ResourceWarning, match="Implicitly cleaning up"):
        del service
        gc.collect()
    try:
        assert not path.exists()
    finally:
        pools.close_all()


def test_rebuilt_pool_reuses_the_store(monkeypatch):
    """Evicting and rebuilding a pool reads the files already written: no
    second generation pass, same directory, same inodes, same frame."""
    generated = []
    original = ParSSimDataset.chunk_field

    def counted(self, chunk, timestep, species=0):
        generated.append((chunk.chunk_id, timestep, species))
        return original(self, chunk, timestep, species)

    monkeypatch.setattr(ParSSimDataset, "chunk_field", counted)
    service = _service(max_pools=1)
    try:
        first = service.render({**QUERY, "config": "R-E-Ra-M"})
        store = _store_of(service)
        inodes = {p.name: p.stat().st_ino for p in Path(store["path"]).iterdir()}
        once = SCENE.timesteps * SCENE.nchunks
        assert len(generated) == len(set(generated)) == once

        assert service.render({**QUERY, "config": "RE-Ra-M"})["warm"] is False
        again = service.render({**QUERY, "config": "R-E-Ra-M"})
        assert again["warm"] is False  # evicted by the other pool, rebuilt
        assert again["frame_b64"] == first["frame_b64"]
        assert _store_of(service) == store
        assert inodes == {
            p.name: p.stat().st_ino for p in Path(store["path"]).iterdir()
        }
        assert len(generated) == once
    finally:
        service.close()


def test_scoped_handle_reads_what_the_pipeline_reads():
    """Serve-side extraction over the store gives the generator's triangles."""
    from repro.viz.marching_cubes import extract_triangles

    dataset = ParSSimDataset(
        SCENE.shape, timesteps=SCENE.timesteps, species=SCENE.species,
        seed=SCENE.seed,
    )
    service = _service()
    try:
        triangles = service._extract_triangles(SCENE, 1, 0.4)
        profile = service._scene_assets(SCENE)[1]
        assert sorted(triangles) == [c.chunk_id for c in profile.chunks]
        for chunk in profile.chunks:
            origin = tuple(float(chunk.start[axis]) for axis in (2, 1, 0))
            np.testing.assert_array_equal(
                triangles[chunk.chunk_id],
                extract_triangles(
                    dataset.chunk_field(chunk, 1, 0), 0.4, origin=origin
                ),
            )
    finally:
        service.close()
