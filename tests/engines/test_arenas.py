"""Payload arenas: the ledger, the lifetime contract, back-pressure, oversize.

Every producing copy places its out-of-band arrays in one arena, mapped
before the copies fork, and every consumer gives each extent back when
``handle`` returns.  These tests hold the three real transports — threads
with a codec, a forked batch, a warm pool — to that: no extent outlives
its cycle; a view kept past ``handle`` is the filter's bug, and a wrapper
that scribbles over every extent as it is given back keeps every frame
bit-exact; a producer with more in flight than its arena holds waits and
finishes; a payload larger than the arena fails its cycle by name.
"""

import multiprocessing
import queue
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.configurations import CONFIGURATIONS
from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core import buffer as buffer_module
from repro.core.buffer import Arena, BufferCodec
from repro.engines import ProcessEngine, ThreadedEngine
from repro.engines.pool import WarmPool
from repro.errors import EngineError
from tests.engines.test_crash_drain import (  # noqa: F401  (fixtures)
    arena_ledger,
    shm_ledger,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked copies need the fork start method",
)

LENGTH = 4096  # float64 values per payload: 32 KiB, over the threshold


class ArraySource(Filter):
    def __init__(self, count, length=LENGTH):
        self.count = count
        self.length = length

    def flush(self, ctx):
        for i in range(self.count):
            arr = np.full(self.length, float(i))
            ctx.write(DataBuffer(arr.nbytes, payload=arr, tags={"seq": i}))


class Forward(Filter):
    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(buffer.nbytes, payload=buffer.payload * 2))


class SlowForward(Forward):
    def handle(self, ctx, buffer):
        time.sleep(0.002)  # the source runs ahead of its consumer
        super().handle(ctx, buffer)


class SumSink(Filter):
    def init(self, ctx):
        self.total = 0.0

    def handle(self, ctx, buffer):
        self.total += float(buffer.payload.sum())

    def result(self):
        return self.total


def _graph(count, length=LENGTH, mid_copies=2, mid=Forward):
    g = FilterGraph()
    g.add_filter("src", factory=lambda: ArraySource(count, length), is_source=True)
    g.add_filter("mid", factory=mid)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("mid", [("h0", mid_copies)]).place("sink", ["h0"])
    return g, p


def _expected(count, length=LENGTH):
    return 2.0 * length * sum(range(count))


class _Pool:
    """A warm pool behind the batch ``run_cycles`` API, one query at a time."""

    def __init__(self, graph, placement, **kw):
        self.pool = WarmPool(graph, placement, **kw)

    def run_cycles(self, uows):
        try:
            return [self.pool.submit(uow).result(timeout=60.0) for uow in uows]
        finally:
            self.pool.close()


transports = pytest.mark.parametrize(
    "engine_cls", [ThreadedEngine, ProcessEngine, _Pool],
    ids=["threads", "forked-batch", "warm-pool"],
)


def _run(engine, uows, timeout=60.0):
    """``engine.run_cycles(uows)`` on a helper thread under a hard timeout."""
    outcome = []

    def target():
        try:
            outcome.append(engine.run_cycles(uows))
        except BaseException as exc:  # noqa: BLE001 - inspected by the caller
            outcome.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"still running after {timeout}s"
    return outcome[0]


# -- the ledger ----------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [ThreadedEngine, ProcessEngine])
def test_no_extent_outlives_a_batch_run(engine_cls, arena_ledger, shm_ledger):
    g, p = _graph(12)
    for _ in range(2):
        engine = engine_cls(g, p, policy="DD", codec=BufferCodec(shm_threshold=1024))
        metrics = engine.run_cycles([None, None, None])
        assert [m.result for m in metrics] == [_expected(12)] * 3
        assert not arena_ledger()
    assert not shm_ledger()


def test_no_extent_outlives_a_pooled_query(arena_ledger, shm_ledger):
    """A query resolves once every copy reported its cycle, and a consumer
    gives each extent back before it reports: the ledger is clean after
    every query, with the copies still alive."""
    g, p = _graph(12)
    with WarmPool(g, p, policy="DD", codec=BufferCodec(shm_threshold=1024)) as pool:
        for _ in range(4):
            assert pool.submit(None).result(timeout=60.0).result == _expected(12)
            assert not arena_ledger()
        arenas = pool.stats()["arenas"]
    assert sorted(arenas) == ["mid@h0#0", "mid@h0#1", "src@h0#0"]
    for arena in arenas.values():
        assert arena["capacity"] == buffer_module.ARENA_BYTES
        assert 0 < arena["high_water"] <= arena["capacity"]
    assert not shm_ledger()


def test_give_backs_from_many_threads_never_free_a_live_extent(monkeypatch):
    """One owner places payloads of random sizes in a small arena while four
    consumers check and give them back, the interpreter switching threads
    every 10 µs: a lost update to the record table would let the owner
    place over an extent still in use, and its consumer would read the
    wrong value."""
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", 16 * 4096)
    arena = Arena()
    handoff = queue.Queue(maxsize=8)
    wrong = []

    def consume():
        while (item := handoff.get()) is not None:
            extent, count, value = item
            if not (arena.view(extent[2], (count,), "<f8") == value).all():
                wrong.append(value)
            arena.give_back(extent)

    consumers = [threading.Thread(target=consume, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for consumer in consumers:
            consumer.start()
        rng = random.Random(3)
        for value in range(3000):
            count = rng.randint(1, 2048)
            extent = arena.place(count * 8)
            arena.view(extent[2], (count,), "<f8")[:] = value
            handoff.put((extent, count, value))
        for _ in consumers:
            handoff.put(None)
        for consumer in consumers:
            consumer.join(30.0)
            assert not consumer.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert arena.live() == 0
    assert arena.high_water <= 16 * 4096


# -- back-pressure and oversize -------------------------------------------------
@transports
def test_producer_with_more_in_flight_than_its_arena_waits(
    engine_cls, monkeypatch, arena_ledger
):
    """Capacity for four payloads, a queue for eight and no DD window: the
    source fills its arena and waits for give-backs, and every result is
    exact."""
    capacity = 4 * LENGTH * 8
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", capacity)
    g, p = _graph(40, mid_copies=1, mid=SlowForward)
    engine = engine_cls(
        g, p, policy="RR", codec=BufferCodec(shm_threshold=1024), queue_capacity=8
    )
    metrics = _run(engine, [None, None])
    assert not isinstance(metrics, BaseException), metrics
    assert [m.result for m in metrics] == [_expected(40)] * 2
    assert max(a.high_water for a in arena_ledger.arenas) == capacity
    assert not arena_ledger()


@transports
def test_payload_larger_than_the_arena_fails_its_cycle(
    engine_cls, monkeypatch, arena_ledger, shm_ledger
):
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", 16384)
    g, p = _graph(3, length=LENGTH)
    engine = engine_cls(g, p, policy="DD", codec=BufferCodec(shm_threshold=1024))
    exc = _run(engine, [None])
    assert isinstance(exc, EngineError), exc
    assert "src@h0#0 cycle 0 stream 'src->mid'" in str(exc)
    assert "a payload of 32768 bytes exceeds the 16384-byte arena" in str(exc)
    assert not arena_ledger()
    assert not shm_ledger()


# -- the payload lifetime contract ----------------------------------------------
@pytest.fixture
def scribble_on_give_back(monkeypatch):
    """Overwrite every extent as it is given back (patched before any fork,
    so every copy scribbles): a view read after its ``handle`` returned
    then sees garbage instead of the payload it was given."""
    give_back = Arena.give_back

    def scribbling(self, extent):
        record, xid, offset, nbytes = extent
        if self._table[record, 0] == xid:
            self.view(offset, (nbytes,), "|u1")[:] = 0xA5
        give_back(self, extent)

    monkeypatch.setattr(Arena, "give_back", scribbling)


class HoldingSink(Filter):
    """Keeps its input views past ``handle`` — the bug the contract names."""

    def init(self, ctx):
        self.held = []

    def handle(self, ctx, buffer):
        self.held.append(buffer.payload)

    def result(self):
        return float(sum(arr.sum() for arr in self.held))


def test_a_view_kept_past_handle_is_overwritten(scribble_on_give_back):
    """The scribbler bites: a sink that keeps views reads garbage."""
    g = FilterGraph()
    g.add_filter("src", factory=lambda: ArraySource(4), is_source=True)
    g.add_filter("sink", factory=HoldingSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    clean = ThreadedEngine(g, p).run().result
    scribbled = ThreadedEngine(g, p, codec=BufferCodec(shm_threshold=1024)).run().result
    assert clean == LENGTH * sum(range(4))
    assert scribbled != clean


@pytest.fixture(scope="module")
def tiny_scene():
    from repro.data import ParSSimDataset
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((17, 17, 17), timesteps=1, species=1, seed=5)
    profile = DatasetProfile.measured(
        "tiny", dataset, nchunks=8, nfiles=4, isovalue=0.35
    )
    return dataset, profile


def _frame(tiny_scene, config, algorithm, engine_cls, codec):
    from repro.data import HostDisks, StorageMap
    from repro.viz import IsosurfaceApp

    dataset, profile = tiny_scene
    storage = StorageMap.balanced(profile.files, [HostDisks("h0"), HostDisks("h1")])
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm=algorithm,
        dataset=dataset, isovalue=0.35,
    )
    graph = app.graph(config)
    placement = app.placement(config, compute_hosts=["h0", "h1"], copies_per_host=2)
    kw = {} if codec is None else {"codec": codec}
    (metrics,) = _run(engine_cls(graph, placement, policy="DD", **kw), [None])
    return metrics.result.image


@pytest.mark.parametrize("algorithm", ["active", "zbuffer"])
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_frames_survive_scribbled_give_backs(
    tiny_scene, config, algorithm, scribble_on_give_back, arena_ledger
):
    """Every shipped filter is done with its input when ``handle`` returns:
    with every extent overwritten as it is given back, the frame on each
    transport is byte-identical to the codec-less threaded engine's."""
    reference = _frame(tiny_scene, config, algorithm, ThreadedEngine, None)
    assert reference.max() > 0
    for engine_cls in (ThreadedEngine, ProcessEngine, _Pool):
        # A threshold this low puts chunks, triangles, WPA buffers and
        # slabs alike through the arenas.
        image = _frame(
            tiny_scene, config, algorithm, engine_cls, BufferCodec(shm_threshold=256)
        )
        assert image.tobytes() == reference.tobytes(), engine_cls.__name__
    assert not arena_ledger()
