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

import pytest

from repro.configurations import CONFIGURATIONS
from repro.data import DeclusteredStore, HostDisks, ParSSimDataset, StorageMap
from repro.engines import ProcessEngine, ThreadedEngine
from repro.engines.pool import WarmPool
from repro.errors import ReproError
from repro.serve import Query, QueryService, SceneSpec, frame_key, ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.camera import Camera
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


def _pipeline(dataset, profile, storage, config, algorithm):
    """(graph, engine keyword arguments) of one pipeline over ``dataset``."""
    app = IsosurfaceApp(
        profile, storage, width=SIZE, height=SIZE, algorithm=algorithm,
        dataset=dataset, isovalue=SCENE.isovalue,
    )
    return app.graph(config), dict(
        placement=app.placement(config, copies_per_host=2), policy="DD",
    )


@pytest.fixture(scope="module")
def generator_frames():
    """Cold ``ThreadedEngine`` frames of QUERY over the in-memory generator,
    one per (configuration, algorithm)."""
    scene = _generator_scene()

    def render(config, algorithm):
        graph, kw = _pipeline(*scene, config, algorithm)
        engine = ThreadedEngine(graph, **kw)
        return ppm_bytes(engine.run_cycles([_uow()])[0].result.image)

    frames = {
        (config, algorithm): render(config, algorithm)
        for config in CONFIGURATIONS
        for algorithm in ALGORITHMS
    }
    assert len(set(frames.values())) == 1  # one scene, one frame
    assert max(frames["R-E-Ra-M", "zbuffer"][len(b"P6 48 48 255\n"):]) > 0
    return frames


def _kept(store, profile, isovalue, timestep=QUERY["timestep"]):
    """The chunks whose recorded value range admits a triangle."""
    return [
        chunk for chunk in profile.chunks
        if not range_excludes(store.chunk_range(chunk, timestep, 0), isovalue)
    ]


@pytest.fixture(scope="module")
def served():
    """``served(config, algorithm)``: a service running that pipeline (one
    open at a time)."""
    services = {}

    def service_of(config, algorithm):
        if (config, algorithm) not in services:
            for service in services.values():
                service.close()
            services.clear()
            services[config, algorithm] = _service(
                config=config, algorithm=algorithm
            )
        return services[config, algorithm]

    yield service_of
    for service in services.values():
        service.close()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_served_frames_are_the_generators(served, generator_frames, config, algorithm):
    """Every grouping of the stages reads the store — through an R->E stream
    or fused with Extract — and renders the generator's frame."""
    service = served(config, algorithm)
    response = service.render(dict(QUERY))
    assert _frame(response) == generator_frames[config, algorithm]
    read_streams = [
        name for name in response["streams"] if name.startswith("R->")
    ]
    assert read_streams == {
        "R-E-Ra-M": ["R->E"], "R-ERa-M": ["R->ERa"],
    }.get(config, [])
    store, profile, _storage = service._scene_assets(SCENE)
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
    """A tile miss reads the store in the Read copies, whether Read stands
    alone or is fused; a repeat is the cached frame — the same frame."""
    for config in CONFIGURATIONS:
        expected = generator_frames[config, "zbuffer"]
        service = _service(config=config, algorithm="zbuffer", cache_mb=16)
        try:
            miss = service.render(dict(QUERY))
            assert miss["cache"]["tiles"] == "miss"
            if config in _READ_STREAM:  # carries the chunks Read kept
                assert miss["streams"][_READ_STREAM[config]][0] == (
                    miss["chunks"][0]
                )
            other_view = service.render(
                {**QUERY, "view": {"azimuth": 200, "elevation": -20}}
            )
            assert other_view["cache"]["tiles"] == "miss"
            hit = service.render(dict(QUERY))
            assert hit["cached"] is True
            for response in (miss, hit):
                assert _frame(response) == expected
            assert _frame(other_view) != expected
        finally:
            service.close()


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
    service = served(config, algorithm)
    for side, isovalue in outside.items():
        response = service.render({**QUERY, "isovalue": isovalue})
        assert _frame(response) == blank_frames[config, algorithm, side]
        assert response["active_pixels"] == 0
        assert response["chunks"] == [0, SCENE.nchunks]
        for name in _UPSTREAM[config]:  # an idle stream may go unlisted
            assert response["streams"].get(name, [0, 0]) == [0, 0]
    # and the pool is none the worse for it
    again = service.render(dict(QUERY))
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
        generator_frames[config, algorithm],
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
    """A cached miss reads nothing either, and the cached frames are the
    uncached ones."""
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    try:
        for side, isovalue in outside.items():
            expected = blank_frames["R-E-Ra-M", "zbuffer", side]
            miss = service.render({**QUERY, "isovalue": isovalue})
            assert miss["cache"]["tiles"] == "miss"
            assert miss["chunks"] == [0, SCENE.nchunks]
            assert miss["streams"].get("R->E", [0, 0]) == [0, 0]
            other_view = service.render(
                {**QUERY, "isovalue": isovalue,
                 "view": {"azimuth": 200, "elevation": -20}}
            )
            assert other_view["cache"]["tiles"] == "miss"
            hit = service.render({**QUERY, "isovalue": isovalue})
            assert hit["cached"] is True and hit["chunks"] is None
            for response in (miss, other_view, hit):
                assert _frame(response) == expected
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

        # a cached miss is the same run; a tile hit runs no pipeline and
        # counts nothing
        miss = service.render(dict(QUERY))
        hit = service.render(dict(QUERY))
        assert miss["chunks"] == responses[1]["chunks"]
        assert miss["streams"]["R->E"][0] == miss["chunks"][0]
        assert hit["cached"] is True and hit["chunks"] is None
        stats = service.stats()
        assert (stats["chunks_needed"], stats["chunks_total"]) == tuple(
            miss["chunks"]
        )
    finally:
        service.close()
        uncached.close()


def test_cache_keys_are_those_of_the_in_memory_scene():
    """The store materialises the scene facts, so nothing about it enters
    a key: the digest is the request's, pinned."""
    query = Query(SCENE, "R-E-Ra-M", "zbuffer", 48, 48, 0.4, 1, (60.0, 10.0))
    assert frame_key("sig", query) == "8be339db229578419dc11191"
    query = Query(SCENE, "R-E-Ra-M", "active", 32, 32, 0.3, 0, None)
    assert frame_key("sig", query) == "50b20c13ef30fdc95b62b060"


def test_served_query_creates_no_segment(tmp_path, monkeypatch):
    """No stream of a served query creates a shared-memory segment.

    Chunks over the codec's threshold reach Extract as file regions, so the
    Read copies place nothing; triangles and framebuffer slabs go through
    the Extract and Raster copies' arenas, mapped before the pool forked.
    """
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
        scenes=[scene], config="R-E-Ra-M", algorithm="zbuffer", width=128,
        height=128,
    )
    try:
        response = service.render({"isovalue": 0.3})
        arenas = service.stats()["pools"][scene.name]["arenas"]
        store, profile, _storage = service._scene_assets(scene)
        chunk_sizes = {c.nbytes for c in profile.chunks}
        kept = _kept(store, profile, 0.3, timestep=0)
    finally:
        service.close()
    assert min(chunk_sizes) >= 64 * 1024  # the R->E buffers are out-of-band
    assert response["streams"]["R->E"][0] == len(kept) > 1
    assert log.read_text() == ""
    placed = {label.split("@")[0]: 0 for label in arenas}
    for label, arena in arenas.items():
        placed[label.split("@")[0]] += arena["high_water"]
    assert sorted(placed) == ["E", "R", "Ra"]
    assert placed["R"] == 0 < placed["E"]
    assert placed["Ra"] >= 2 * 128 * 128 * 4  # a slab each: its depths


def test_served_s129_query_stays_within_the_arena_bound():
    """The measured scene's queries place what ``ARENA_BYTES`` says they may.

    Its comment bounds one slot at 11 payloads of 2 MiB: a served S129
    query keeps every copy's high-water mark inside that, each Raster copy
    places exactly one 512² slab (depths and colours), and Read places
    nothing — its chunks travel as file regions.
    """
    from repro.core.buffer import ARENA_BYTES

    scene = SceneSpec(
        "S129", grid=129, timesteps=1, species=1, nchunks=64, nfiles=8, seed=7,
        isovalue=0.35,
    )
    service = _service(
        scenes=[scene], config="R-E-Ra-M", algorithm="zbuffer", width=512,
        height=512, max_inflight=2,
    )
    try:
        for isovalue, azimuth in ((0.3, 30.0), (0.45, 200.0)):
            view = {"azimuth": azimuth, "elevation": 20.0}
            service.render({"isovalue": isovalue, "view": view})
        arenas = service.stats()["pools"][scene.name]["arenas"]
    finally:
        service.close()
    per_slot = 2 * 2**20 * (8 * 1 + 2 + 1)
    assert ARENA_BYTES == 2 * per_slot
    by_stage = {}
    for label, arena in arenas.items():
        assert arena["capacity"] == ARENA_BYTES
        by_stage.setdefault(label.split("@")[0], []).append(arena["high_water"])
    assert set(by_stage["R"]) == {0}
    assert by_stage["Ra"] == [512 * 512 * 7] * 2
    assert 0 < max(by_stage["E"]) <= per_slot


# -- the front-end keeps none of the store mapped ------------------------------
def _mapped_under(directory):
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if str(directory) in line})


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_tile_misses_leave_no_store_file_mapped():
    """The store is read in the Read copies: the front-end asks it only for
    chunk ranges, and maps none of its files."""
    service = _service(config="R-E-Ra-M", algorithm="zbuffer", cache_mb=16)
    try:
        for timestep in range(SCENE.timesteps):
            response = service.render({"isovalue": 0.4, "timestep": timestep})
            assert response["cache"]["tiles"] == "miss"
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
    pools = list(service._pools.values())  # kept, to retire the workers after
    assert path.is_dir()
    with pytest.warns(ResourceWarning, match="Implicitly cleaning up"):
        del service
        gc.collect()
    try:
        assert not path.exists()
    finally:
        for pool in pools:
            pool.close()


def test_rebuilt_pool_reuses_the_store(monkeypatch):
    """A pool built again after the scene's broke reads the files already
    written: no second generation pass, same directory, same inodes, same
    frame."""
    generated = []
    original = ParSSimDataset.chunk_field

    def counted(self, chunk, timestep, species=0):
        generated.append((chunk.chunk_id, timestep, species))
        return original(self, chunk, timestep, species)

    monkeypatch.setattr(ParSSimDataset, "chunk_field", counted)
    service = _service(config="R-E-Ra-M")
    try:
        first = service.render(dict(QUERY))
        store = _store_of(service)
        inodes = {p.name: p.stat().st_ino for p in Path(store["path"]).iterdir()}
        once = SCENE.timesteps * SCENE.nchunks
        assert len(generated) == len(set(generated)) == once

        service._pools[SCENE.name].close()  # as a pool whose worker died
        again = service.render(dict(QUERY))
        assert again["warm"] is False  # built again
        assert again["frame_b64"] == first["frame_b64"]
        assert _store_of(service) == store
        assert inodes == {
            p.name: p.stat().st_ino for p in Path(store["path"]).iterdir()
        }
        assert len(generated) == once
    finally:
        service.close()
