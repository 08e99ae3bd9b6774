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
from repro.data import DeclusteredStore, HostDisks, ParSSimDataset, StorageMap
from repro.engines import ProcessEngine, ThreadedEngine
from repro.engines.pool import WarmPool
from repro.errors import ReproError
from repro.serve import Query, QueryService, SceneSpec, cache_keys, ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.filters import chunks_needed
from repro.viz.marching_cubes import range_excludes
from repro.viz.profile import DatasetProfile
from tests.engines.test_crash_drain import shm_ledger  # noqa: F401  (fixture)

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


def _generator_scene():
    dataset = ParSSimDataset(
        SCENE.shape, timesteps=SCENE.timesteps, species=SCENE.species,
        seed=SCENE.seed,
    )
    profile = DatasetProfile.measured(
        SCENE.name, dataset, nchunks=SCENE.nchunks, nfiles=SCENE.nfiles,
        isovalue=SCENE.isovalue,
    )
    return dataset, profile, StorageMap.balanced(profile.files, [HostDisks("host0")])


def _uow(isovalue=QUERY["isovalue"]):
    return {
        "isovalue": isovalue,
        "timestep": QUERY["timestep"],
        "camera": Camera.orbit(
            SCENE.shape, azimuth_deg=60, elevation_deg=10, width=SIZE,
            height=SIZE,
        ),
    }


def _pipeline(dataset, profile, storage, config, algorithm, merge_copies=1):
    """(graph, engine keyword arguments) of one pipeline over ``dataset``."""
    app = IsosurfaceApp(
        profile, storage, width=SIZE, height=SIZE, algorithm=algorithm,
        dataset=dataset, isovalue=SCENE.isovalue, merge_copies=merge_copies,
    )
    return app.graph(config), dict(
        placement=app.placement(config, copies_per_host=2), policy="DD",
        policy_overrides=app.policy_overrides(config),
    )


@pytest.fixture(scope="module")
def generator_frames():
    """Cold ``ThreadedEngine`` frames of QUERY over the in-memory generator,
    one per (configuration, algorithm, merge copies)."""
    scene = _generator_scene()

    def render(config, algorithm, merge_copies=1):
        graph, kw = _pipeline(*scene, config, algorithm, merge_copies)
        engine = ThreadedEngine(graph, **kw)
        return ppm_bytes(engine.run_cycles([_uow()])[0].result.image)

    frames = {
        (config, algorithm, 1): render(config, algorithm)
        for config in CONFIGURATIONS
        for algorithm in ALGORITHMS
    }
    frames["R-E-Ra-M", "zbuffer", 2] = render("R-E-Ra-M", "zbuffer", 2)
    assert len(set(frames.values())) == 1  # one scene, one frame
    assert max(frames["R-E-Ra-M", "zbuffer", 1][len(b"P6 48 48 255\n"):]) > 0
    return frames


def _kept(store, profile, isovalue, timestep=QUERY["timestep"]):
    """The chunks whose recorded value range admits a triangle."""
    return [
        chunk for chunk in profile.chunks
        if not range_excludes(store.chunk_range(chunk, timestep, 0), isovalue)
    ]


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
    store, profile, _storage = served._scene_assets(SCENE)
    kept = _kept(store, profile, QUERY["isovalue"])
    assert 0 < len(kept) < len(profile.chunks)  # the rule has something to do
    assert response["chunks"] == [len(kept), len(profile.chunks)]
    for name in read_streams:
        # Read streams the chunks the isosurface can cross and no other; the
        # accounting stays logical: the chunks' bytes, not a descriptor's
        assert response["streams"][name] == [
            len(kept), sum(chunk.nbytes for chunk in kept),
        ]


def test_cached_service_serves_the_generators_frames(generator_frames):
    """Triangle-tier misses extract from the store serve-side and inject,
    into a Read that stands alone or a fused one; hits inject the cached
    arrays; a repeat is the cached frame — all the same frame."""
    for config in CONFIGURATIONS:
        expected = generator_frames[config, "zbuffer", 1]
        service = _service(config=config, algorithm="zbuffer", cache_mb=16)
        try:
            miss = service.render(dict(QUERY))
            assert miss["cache"]["triangles"] == "miss"
            if config in _READ_STREAM:  # carries the injected triangles
                assert _READ_STREAM[config] in miss["streams"]
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


# -- isovalues no chunk can cross: Read streams nothing --------------------------
#: the stream Read writes where it is a filter of its own, and the streams
#: that carry nothing when no chunk is read (the z-buffer raster still
#: ships its empty framebuffer to Merge)
_READ_STREAM = {"R-E-Ra-M": "R->E", "R-ERa-M": "R->ERa"}
_UPSTREAM = {
    "R-E-Ra-M": ("R->E", "E->Ra"), "RE-Ra-M": ("RE->Ra",),
    "R-ERa-M": ("R->ERa",), "RERa-M": (),
}


@pytest.fixture(scope="module")
def outside():
    """Isovalues below and above every sample of the scene (species 0)."""
    dataset = _generator_scene()[0]
    fields = [dataset.field(t, 0) for t in range(SCENE.timesteps)]
    return {
        "below": float(min(f.min() for f in fields)) - 0.5,
        "above": float(max(f.max() for f in fields)) + 0.5,
    }


@pytest.fixture(scope="module")
def blank_frames(outside):
    """The generator's frames at those isovalues: background, nothing else."""
    scene = _generator_scene()
    frames = {}
    for config in CONFIGURATIONS:
        for algorithm in ALGORITHMS:
            graph, kw = _pipeline(*scene, config, algorithm)
            results = ThreadedEngine(graph, **kw).run_cycles(
                [_uow(outside["below"]), _uow(outside["above"])]
            )
            for side, metrics in zip(("below", "above"), results):
                assert metrics.result.active_pixels == 0
                if config in _READ_STREAM:
                    # the generator records no ranges: all of it is read
                    assert metrics.stream_totals(_READ_STREAM[config]) == (
                        len(scene[1].chunks), scene[1].bytes_per_timestep,
                    )
                frames[config, algorithm, side] = ppm_bytes(metrics.result.image)
    assert len(set(frames.values())) == 1
    return frames


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_isovalue_outside_the_scene_serves_the_blank_frame(
    served, blank_frames, outside, shm_ledger, config, algorithm
):
    """Every chunk's range rules the isovalue out: Read emits nothing, the
    warm pipeline still completes its cycle, the frame is the generator's."""
    for side, isovalue in outside.items():
        response = served.render(
            {**QUERY, "isovalue": isovalue, "config": config,
             "algorithm": algorithm}
        )
        assert _frame(response) == blank_frames[config, algorithm, side]
        assert response["active_pixels"] == 0
        assert response["chunks"] == [0, SCENE.nchunks]
        for name in _UPSTREAM[config]:  # an idle stream may go unlisted
            assert response["streams"].get(name, [0, 0]) == [0, 0]
    # and the pool is none the worse for it
    again = served.render({**QUERY, "config": config, "algorithm": algorithm})
    assert again["warm"] is True and again["active_pixels"] > 0
    assert not shm_ledger()


@pytest.fixture(scope="module")
def scene_store(tmp_path_factory):
    """SCENE as a store of its own: (store, profile, storage)."""
    dataset, profile, storage = _generator_scene()
    store = DeclusteredStore.write(
        dataset, profile, tmp_path_factory.mktemp("scene"), species=[0]
    )
    return store, profile, storage


@pytest.mark.parametrize("engine", ["threaded", "process", "pool"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_engines_complete_cycles_that_read_nothing(
    scene_store, generator_frames, blank_frames, outside, shm_ledger,
    config, algorithm, engine,
):
    """A blank cycle, an ordinary one, a blank one, on every engine: no
    hang, books that balance with zero-buffer streams, the generator's
    frames, nothing left in /dev/shm."""
    store, profile, _storage = scene_store
    graph, kw = _pipeline(*scene_store, config, algorithm)
    isovalues = [outside["below"], QUERY["isovalue"], outside["above"]]
    uows = [_uow(isovalue) for isovalue in isovalues]
    if engine == "pool":
        with WarmPool(graph, **kw) as pool:
            results = [pool.submit(uow).result(timeout=60.0) for uow in uows]
    else:
        engine_cls = ThreadedEngine if engine == "threaded" else ProcessEngine
        results = engine_cls(graph, **kw).run_cycles(uows)
    expected = [
        blank_frames[config, algorithm, "below"],
        generator_frames[config, algorithm, 1],
        blank_frames[config, algorithm, "above"],
    ]
    for metrics, isovalue, frame in zip(results, isovalues, expected):
        metrics.validate(graph)
        assert ppm_bytes(metrics.result.image) == frame
        kept = _kept(store, profile, isovalue)
        if config in _READ_STREAM:
            assert metrics.stream_totals(_READ_STREAM[config]) == (
                len(kept), sum(chunk.nbytes for chunk in kept),
            )
        if not kept:
            for name in _UPSTREAM[config]:
                assert metrics.stream_totals(name) == (0, 0)
    assert not shm_ledger()


def test_cached_service_serves_the_blank_frame(blank_frames, outside):
    """Front-end extraction applies the same rule: every chunk's triangles
    are the empty array, none is read, and the cached frames are the
    uncached ones."""
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    try:
        for side, isovalue in outside.items():
            expected = blank_frames["R-E-Ra-M", "zbuffer", side]
            miss = service.render({**QUERY, "isovalue": isovalue})
            assert miss["cache"]["triangles"] == "miss"
            assert miss["chunks"] == [0, SCENE.nchunks]
            # nothing to inject
            assert miss["streams"].get("R->E", [0, 0]) == [0, 0]
            other_view = service.render(
                {**QUERY, "isovalue": isovalue,
                 "view": {"azimuth": 200, "elevation": -20}}
            )
            assert other_view["cache"]["triangles"] == "hit"
            hit = service.render({**QUERY, "isovalue": isovalue})
            assert hit["cached"] is True and hit["chunks"] is None
            for response in (miss, other_view, hit):
                assert _frame(response) == expected
    finally:
        service.close()


def test_front_end_extraction_reads_only_the_chunks_it_needs(
    monkeypatch, outside
):
    """A chunk the rule excludes is neither read nor its file opened, and
    stands in the result as the empty array the kernel would have made."""
    service = _service()
    try:
        store, profile, _storage = service._scene_assets(SCENE)
        read, opened = [], []
        chunk_field, memmap = DeclusteredStore.chunk_field, np.memmap

        def spy_field(self, chunk, timestep, species=0):
            read.append(chunk.chunk_id)
            return chunk_field(self, chunk, timestep, species)

        def spy_memmap(path, *args, **kwargs):
            opened.append(Path(path).name)
            return memmap(path, *args, **kwargs)

        monkeypatch.setattr(DeclusteredStore, "chunk_field", spy_field)
        monkeypatch.setattr(np, "memmap", spy_memmap)
        file_of = {
            chunk.chunk_id: data_file.file_id
            for data_file in profile.files for chunk in data_file.chunks
        }
        for isovalue in (QUERY["isovalue"], outside["above"], outside["below"]):
            del read[:], opened[:]
            kept = {chunk.chunk_id for chunk in _kept(store, profile, isovalue)}
            triangles = service._extract_triangles(
                SCENE, 1, isovalue, chunks_needed(store, profile.chunks, 1, isovalue)
            )
            assert sorted(read) == sorted(kept)
            assert len(opened) == len({file_of[chunk_id] for chunk_id in kept})
            assert sorted(triangles) == sorted(file_of)
            for chunk_id, array in triangles.items():
                assert array.dtype == np.float32 and array.shape[1:] == (3, 3)
                assert (len(array) > 0) == (chunk_id in kept)
        assert len(kept) == 0 and opened == []  # the last isovalue: nothing
    finally:
        service.close()


def test_front_end_and_pipeline_agree_on_the_chunks_read(outside):
    """``chunks`` is worked out in the front-end, the R->E count in the Read
    copies, both by the one rule; ``stats`` totals the former per run."""
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    uncached = _service(config="R-E-Ra-M")
    try:
        responses = [
            uncached.render({**QUERY, "isovalue": isovalue})
            for isovalue in (0.05, 0.4, 0.8, outside["above"])
        ]
        for response in responses:
            # a stream that carried nothing goes unlisted
            read = response["streams"].get("R->E", [0, 0])
            assert response["chunks"][0] == read[0]
            assert response["chunks"][1] == SCENE.nchunks
        needed = [response["chunks"][0] for response in responses]
        assert len(set(needed)) > 2 and needed[-1] == 0
        stats = uncached.stats()
        assert stats["chunks_needed"] == sum(needed)
        assert stats["chunks_total"] == SCENE.nchunks * len(responses)

        # with injection Read touches no storage, the count still says what
        # the query needs; a tile hit runs no pipeline and counts nothing
        miss = service.render(dict(QUERY))
        hit = service.render(dict(QUERY))
        assert miss["chunks"] == responses[1]["chunks"]
        assert hit["cached"] is True and hit["chunks"] is None
        stats = service.stats()
        assert (stats["chunks_needed"], stats["chunks_total"]) == tuple(
            miss["chunks"]
        )
    finally:
        service.close()
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
        store, profile, _storage = service._scene_assets(scene)
        chunk_sizes = {c.nbytes for c in profile.chunks}
        kept = _kept(store, profile, 0.3, timestep=0)
    finally:
        service.close()
    assert min(chunk_sizes) >= 64 * 1024  # the R->E buffers are out-of-band
    assert response["streams"]["R->E"][0] == len(kept) > 1
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
    service.policy = "no-such-policy"  # past the constructor: the pool's to refuse
    try:
        with pytest.raises(ReproError):
            service.render(dict(QUERY))
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
        store, profile, _storage = service._scene_assets(SCENE)
        triangles = service._extract_triangles(
            SCENE, 1, 0.4, chunks_needed(store, profile.chunks, 1, 0.4)
        )
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
