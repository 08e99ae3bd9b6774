"""Warm-pool lifecycle: reuse, slot ring, close/break protocol.

:class:`~repro.engines.pool.WarmPool` keeps filter-host processes alive
between units of work; these tests cover the contracts the batch engine
never exercises — reuse across successive query batches, bounded in-flight
slots, closing while queries are in flight, ack-drain shutdown ordering
under DD, and the broken-pool path when a worker dies.  How ``repro
serve`` builds, replaces and closes its per-scene pools is held in
``tests/test_serve.py``.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.engines import ProcessEngine, WarmPool
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


def test_close_with_dd_traffic_in_flight_completes_every_query():
    """A close that finds DD traffic in flight lets every pending query
    finish, its acks counted, before the workers leave; repeated open/close
    cycles never hang, and close() is idempotent."""
    for _ in range(3):
        pool = build_pool(policy="DD", max_inflight=2)
        pendings = [pool.submit(None) for _ in range(3)]
        pool.close()
        assert not pool.usable
        metrics = [p.result(timeout=0) for p in pendings]
        assert all(m.result == EXPECTED for m in metrics)
        assert all(m.ack_messages > 0 for m in metrics)
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
