"""Warm-pool lifecycle: reuse, slot ring, idle reap, close/break protocol.

:class:`~repro.engines.pool.WarmPool` keeps filter-host processes alive
between units of work; these tests cover the contracts the batch engine
never exercises — reuse across successive query batches, bounded in-flight
slots, idle-timeout reaping, closing while queries are in flight, ack-drain
shutdown ordering under DD, and the broken-pool path when a worker dies.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.engines import PoolManager, ProcessEngine, WarmPool
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="warm pools need the fork start method",
)


class NumberSource(Filter):
    """Emits 0..count-1, scaled by the unit of work's multiplier."""

    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        scale = (ctx.uow or {}).get("scale", 1) if isinstance(
            ctx.uow, dict
        ) else 1
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(8, payload=i * scale))


class Doubler(Filter):
    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(8, payload=buffer.payload * 2))


class SumSink(Filter):
    def init(self, ctx):
        self.total = 0
        self.buffers = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload
        self.buffers += 1

    def result(self):
        return {"total": self.total, "buffers": self.buffers}


def build_pool(count=10, mid_copies=2, policy="DD", **kw):
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("mid", factory=Doubler)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", mid_copies)])
    p.place("sink", ["h0"])
    return WarmPool(g, p, policy=policy, **kw)


EXPECTED = {"total": 2 * sum(range(10)), "buffers": 10}


def test_reuse_across_query_batches():
    """The same processes serve at least three successive batches."""
    with build_pool() as pool:
        for batch in range(3):
            metrics = pool.submit(None).result()
            assert metrics.result == EXPECTED
            assert metrics.makespan > 0.0
        assert pool.cycles_completed == 3
        stats = pool.stats()
        assert stats["workers"] == 4
        assert stats["cycles_completed"] == 3
    assert not pool.usable


def test_uow_parameterises_each_query():
    with build_pool() as pool:
        assert pool.submit({"scale": 1}).result().result["total"] == 90
        assert pool.submit({"scale": 3}).result().result["total"] == 270
        assert pool.run().result["total"] == 90  # None uow -> defaults


def test_run_cycles_batch_matches_engine_protocol():
    with build_pool() as pool:
        results = pool.run_cycles([{"scale": 1}, {"scale": 2}, {"scale": 4}])
    assert [m.result["total"] for m in results] == [90, 180, 360]


def test_slot_ring_admits_beyond_max_inflight():
    """More queries than slots: submits block politely, all complete."""
    with build_pool(max_inflight=2) as pool:
        pendings = [pool.submit({"scale": s}) for s in (1, 2, 3, 4, 5)]
        totals = [p.result().result["total"] for p in pendings]
    assert totals == [90, 180, 270, 360, 450]


def test_per_query_tracer_is_query_relative():
    from repro.core.tracing import Tracer

    with build_pool(policy="DD") as pool:
        pool.run()  # not traced
        time.sleep(0.2)  # pool-lifetime clock drifts ahead of query clock
        tracer = Tracer()
        metrics = pool.submit(None, tracer=tracer).result()
    assert metrics.ack_messages > 0
    assert tracer.events
    # Rebased onto the query's own clock: events start near zero even
    # though the pool has been alive much longer.
    assert min(e.time for e in tracer.events) < 0.15
    kinds = {e.kind for e in tracer.events}
    assert {"work", "announce"} <= kinds


def test_close_while_busy_finishes_inflight_queries():
    class SlowSink(Filter):
        def init(self, ctx):
            self.count = 0

        def handle(self, ctx, buffer):
            time.sleep(0.02)
            self.count += 1

        def result(self):
            return self.count

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(10), is_source=True)
    g.add_filter("sink", factory=SlowSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    pool = WarmPool(g, p, policy="DD")
    pending = pool.submit(None)
    closer = threading.Thread(target=pool.close)
    closer.start()
    assert pending.result(timeout=30.0).result == 10
    closer.join(timeout=30.0)
    assert not closer.is_alive()
    assert not pool.usable
    with pytest.raises(EngineError, match="closed"):
        pool.submit(None)


def test_ack_drain_shutdown_ordering():
    """DD acks queued at close time are delivered before workers say bye.

    Repeated open/close cycles with in-flight DD traffic would hang (or
    strand ack threads) if the FIFO close protocol mis-ordered the ack
    sentinel against the worker's pending acks.
    """
    for _ in range(3):
        pool = build_pool(policy="DD", max_inflight=2)
        pendings = [pool.submit(None) for _ in range(3)]
        metrics = [p.result() for p in pendings]
        assert all(m.ack_messages > 0 for m in metrics)
        pool.close()
        assert not pool.usable
    # close() is idempotent.
    pool.close()


def test_worker_death_breaks_pool():
    class Mortal(Filter):
        def init(self, ctx):
            self.seen = 0

        def handle(self, ctx, buffer):
            if isinstance(ctx.uow, dict) and ctx.uow.get("die"):
                os._exit(23)
            self.seen += 1

        def result(self):
            return self.seen

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(6), is_source=True)
    g.add_filter("sink", factory=Mortal)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    pool = WarmPool(g, p)
    assert pool.submit(None).result().result == 6
    with pytest.raises(EngineError, match="exit code 23"):
        pool.submit({"die": True}).result()
    assert not pool.usable
    with pytest.raises(EngineError, match="broken|closed"):
        pool.submit(None)
    pool.close()  # close after break is a clean no-op


def test_pool_matches_cold_engine_bit_exact():
    """A warm query renders the same frame as a cold ProcessEngine run."""
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((13, 13, 13), timesteps=2, species=2, seed=7)
    profile = DatasetProfile.measured(
        "pool-parity", dataset, nchunks=8, nfiles=4, isovalue=0.35
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(
        profile, storage, width=32, height=32, algorithm="active",
        dataset=dataset, isovalue=0.35,
    )
    graph = app.graph("RE-Ra-M")
    placement = app.placement("RE-Ra-M", copies_per_host=2)
    cold = ProcessEngine(graph, placement, policy="DD").run()
    with WarmPool(graph, placement, policy="DD") as pool:
        pool.run()
        warm = pool.submit(None).result()
    np.testing.assert_array_equal(cold.result.image, warm.result.image)
    assert cold.result.image.max() > 0


def test_no_shared_memory_leaked_across_pool_lifetime():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    from repro.core.buffer import BufferCodec

    class ArraySource(Filter):
        def flush(self, ctx):
            for i in range(6):
                arr = np.full(4096, float(i))
                ctx.write(DataBuffer(arr.nbytes, payload=arr))

    class ArraySink(Filter):
        def init(self, ctx):
            self.total = 0.0

        def handle(self, ctx, buffer):
            self.total += float(buffer.payload.sum())

        def result(self):
            return self.total

    before = set(os.listdir("/dev/shm"))
    g = FilterGraph()
    g.add_filter("src", factory=ArraySource, is_source=True)
    g.add_filter("sink", factory=ArraySink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    with WarmPool(g, p, codec=BufferCodec(shm_threshold=1024)) as pool:
        for _ in range(3):
            assert pool.run().result == 6 * 4096.0 * 2.5
    for _ in range(50):
        leaked = {
            f for f in set(os.listdir("/dev/shm")) - before
            if f.startswith("psm_")
        }
        if not leaked:
            break
        time.sleep(0.02)
    assert not leaked


# -- PoolManager --------------------------------------------------------------
def test_pool_manager_caches_and_evicts_lru():
    manager = PoolManager(max_pools=2)
    a1, created_a = manager.get("a", lambda: build_pool(count=5))
    assert created_a
    a2, created_again = manager.get("a", lambda: build_pool(count=5))
    assert a2 is a1 and not created_again
    b, _ = manager.get("b", lambda: build_pool(count=5))
    # LRU order is now [a, b]; a third key evicts and closes "a".
    c, _ = manager.get("c", lambda: build_pool(count=5))
    assert len(manager) == 2
    assert not a1.usable  # evicted (least recently used) and closed
    assert b.usable and c.usable
    manager.close_all()
    assert not b.usable and not c.usable
    assert len(manager) == 0


def test_pool_manager_drops_unusable_and_reaps_idle():
    manager = PoolManager(max_pools=4, idle_timeout=0.2)
    pool, _ = manager.get("k", lambda: build_pool(count=5))
    assert pool.submit(None).result().result["total"] == 20
    time.sleep(0.4)
    manager.reap_idle()
    assert len(manager) == 0
    assert not pool.usable
    # A fresh build replaces the reaped pool transparently.
    pool2, created = manager.get("k", lambda: build_pool(count=5))
    assert created and pool2 is not pool
    manager.close_all()


def test_pool_manager_get_after_idle_timeout_keeps_the_pool_it_asked_for():
    """The sweep on ``get`` used to reap every pool idle past the timeout,
    the requested one included: a query after ``idle_timeout`` closed its
    own warm pool and cold-built a new one."""
    manager = PoolManager(max_pools=4, idle_timeout=0.2)
    pool, _ = manager.get("k", lambda: build_pool(count=5))
    manager.get("other", lambda: build_pool(count=5))
    time.sleep(0.4)
    again, created = manager.get("k", lambda: build_pool(count=5))
    assert again is pool and not created and pool.usable
    assert len(manager) == 1  # the other idle pool is still reaped
    assert pool.submit(None).result().result["total"] == 20
    manager.close_all()


class _SlowToClose:
    """The manager's view of a pool, with a ``close()`` that takes a while."""

    busy = False

    def __init__(self, close_seconds=0.0):
        self.usable = True
        self.close_seconds = close_seconds
        self.closed = threading.Event()

    def idle_seconds(self):
        return 0.0

    def close(self):
        time.sleep(self.close_seconds)
        self.closed.set()


def test_pool_manager_get_does_not_wait_for_a_dead_pool_to_close():
    """``get`` used to close the key's own dead pool before rebuilding it,
    so the query paid the broken pool's close (up to ``LEAVE_BOUND``)."""
    manager = PoolManager(max_pools=2)
    dead = _SlowToClose(close_seconds=2.0)
    manager.get("k", lambda: dead)
    dead.usable = False
    fresh = _SlowToClose()
    t0 = time.perf_counter()
    pool, created = manager.get("k", lambda: fresh)
    elapsed = time.perf_counter() - t0
    assert pool is fresh and created
    assert elapsed < 0.5
    assert dead.closed.wait(timeout=10.0)  # closed all the same, off the path
    manager.close_all()
    assert fresh.closed.is_set()


def _build_slow_pool(per_buffer=0.05, count=10):
    class SlowSink(Filter):
        def init(self, ctx):
            self.count = 0

        def handle(self, ctx, buffer):
            time.sleep(per_buffer)
            self.count += 1

        def result(self):
            return self.count

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("sink", factory=SlowSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return WarmPool(g, p, policy="DD")


def test_pool_manager_eviction_skips_busy_pools():
    """Capacity pressure never closes a pool with a query in flight.

    LRU eviction used to pick the least-recently-used pool regardless of
    in-flight queries; closing it blocked on (and raced) the live query.
    Now eviction takes the LRU *idle* pool and defers when every candidate
    is busy, temporarily exceeding ``max_pools``.
    """
    manager = PoolManager(max_pools=1)
    slow, _ = manager.get("a", _build_slow_pool)
    pending = slow.submit(None)  # ~0.5 s of sink work in flight
    assert slow.busy
    fast, created = manager.get("b", lambda: build_pool(count=5))
    assert created
    # The busy pool was not evicted: the manager deferred instead.
    assert len(manager) == 2
    assert slow.usable
    assert pending.result(timeout=30.0).result == 10  # query survived
    assert fast.submit(None).result().result == {"total": 20, "buffers": 5}
    # Once "a" drains, a later get shrinks back under budget.
    deadline = time.time() + 10.0
    while (len(manager) > 1 or slow.usable) and time.time() < deadline:
        manager.get("b", lambda: build_pool(count=5))
        time.sleep(0.05)
    assert len(manager) == 1
    assert not slow.usable and fast.usable
    manager.close_all()


def test_pool_manager_concurrent_misses_build_once():
    """Two misses on one key share a single cold build (per-key latch)."""
    builds = []

    def build_counted():
        builds.append(threading.get_ident())
        time.sleep(0.3)
        return build_pool(count=5)

    manager = PoolManager(max_pools=2)
    results = []

    def worker():
        results.append(manager.get("k", build_counted))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert len(builds) == 1
    assert len({id(pool) for pool, _ in results}) == 1
    assert sum(created for _, created in results) == 1
    pool = results[0][0]
    assert pool.submit(None).result().result == {"total": 20, "buffers": 5}
    manager.close_all()


def test_warm_hit_is_not_serialised_behind_cold_build():
    """A cold build on one key must not block warm hits on another.

    Builds used to run under the manager lock, so one slow fork stalled
    every concurrent ``get``; they now run outside it behind the latch.
    """
    manager = PoolManager(max_pools=4)
    warm, _ = manager.get("warm", lambda: build_pool(count=5))
    started = threading.Event()

    def slow_build():
        started.set()
        time.sleep(1.0)
        return build_pool(count=5)

    builder = threading.Thread(target=lambda: manager.get("cold", slow_build))
    builder.start()
    assert started.wait(timeout=10.0)
    t0 = time.perf_counter()
    hit, created = manager.get("warm", lambda: pytest.fail("rebuilt"))
    elapsed = time.perf_counter() - t0
    assert hit is warm and not created
    assert elapsed < 0.5  # did not wait out the 1 s cold build
    builder.join(timeout=30.0)
    manager.close_all()


def test_pool_manager_build_failure_reaches_all_waiters():
    gate = threading.Event()

    def failing():
        gate.wait(timeout=5.0)
        raise EngineError("boom")

    manager = PoolManager(max_pools=2)
    errors = []

    def worker():
        try:
            manager.get("k", failing)
        except EngineError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.2)
    gate.set()
    for t in threads:
        t.join(timeout=30.0)
    assert errors == ["boom"] * 3
    # The failed key is not poisoned: a later get rebuilds cleanly.
    pool, created = manager.get("k", lambda: build_pool(count=5))
    assert created and pool.usable
    manager.close_all()


def test_manager_sweep_closes_dead_pool_and_releases_shm():
    """A pool whose worker died is closed defensively when swept.

    ``_reap`` used to just drop dead pools from the table; their shm
    ledger was only released if the breaker happened to run first.  The
    sweep now closes them, so the crash-drain path always ends with a
    clean /dev/shm.
    """
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    from repro.core.buffer import BufferCodec

    class MortalSink(Filter):
        # Dies in init (before leasing any segment): the parent-recoverable
        # hard-crash point, as in test_crash_drain -- a copy killed
        # mid-handle necessarily strands its one leased segment until the
        # resource tracker reclaims it at interpreter exit.
        def init(self, ctx):
            if isinstance(ctx.uow, dict) and ctx.uow.get("die"):
                # Let the source finish queueing its (window-sized) batch
                # first, so the crash strands segments in the queue -- the
                # exact state the sweep's defensive close must drain.
                time.sleep(0.5)
                os._exit(23)
            self.total = 0.0

        def handle(self, ctx, buffer):
            self.total += float(buffer.payload.sum())

        def result(self):
            return self.total

    class ArraySource(Filter):
        # Four buffers: within the DD window (4) and queue capacity, so
        # the producer is never terminated mid-send.
        def flush(self, ctx):
            for i in range(4):
                arr = np.full(4096, float(i))
                ctx.write(DataBuffer(arr.nbytes, payload=arr))

    def build_mortal():
        g = FilterGraph()
        g.add_filter("src", factory=ArraySource, is_source=True)
        g.add_filter("sink", factory=MortalSink)
        g.connect("src", "sink")
        p = Placement().place("src", ["h0"]).place("sink", ["h0"])
        return WarmPool(g, p, codec=BufferCodec(shm_threshold=1024))

    before = set(os.listdir("/dev/shm"))
    manager = PoolManager(max_pools=2)
    pool, _ = manager.get("k", build_mortal)
    assert pool.submit(None).result().result == 4 * 4096.0 * 1.5
    with pytest.raises(EngineError):
        pool.submit({"die": True}).result()
    assert not pool.usable
    manager.reap_idle()  # sweeps the dead pool and closes it defensively
    assert len(manager) == 0
    leaked = set()
    for _ in range(50):
        leaked = {
            f for f in set(os.listdir("/dev/shm")) - before
            if f.startswith("psm_")
        }
        if not leaked:
            break
        time.sleep(0.02)
    assert not leaked
    manager.close_all()
