"""Integration tests for the process engine: real filters, one OS process
per copy, payloads through the shared-memory buffer codec."""

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import BufferCodec
from repro.engines.process import ProcessEngine
from repro.engines.threaded import ThreadedEngine
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process engine needs the fork start method",
)


class NumberSource(Filter):
    """Emits integers 0..count-1, one per buffer, partitioned over copies."""

    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(8, payload=i, tags={"seq": i}))


class Doubler(Filter):
    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(8, payload=buffer.payload * 2, tags=buffer.tags))


class SumSink(Filter):
    def __init__(self):
        self.total = 0
        self.buffers = 0

    def init(self, ctx):
        # Copies persist across run_cycles units of work; restart the books.
        self.total = 0
        self.buffers = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload
        self.buffers += 1

    def result(self):
        return {"total": self.total, "buffers": self.buffers}


class ArraySource(Filter):
    """Emits large float64 arrays, forcing the shared-memory payload path."""

    def __init__(self, count, length=20_000):
        self.count = count
        self.length = length

    def flush(self, ctx):
        for i in range(self.count):
            arr = np.full(self.length, float(i), dtype=np.float64)
            ctx.write(DataBuffer(arr.nbytes, payload=arr, tags={"seq": i}))


class ArraySumSink(Filter):
    def init(self, ctx):
        self.total = 0.0

    def handle(self, ctx, buffer):
        # Payload arrays are shared-memory views valid only inside handle;
        # reduce, don't retain.
        self.total += float(buffer.payload.sum())

    def result(self):
        return self.total


def build(count=20, mid_copies=1, policy="RR", **kw):
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
    return ProcessEngine(g, p, policy=policy, **kw)


def test_pipeline_computes_correct_result():
    metrics = build(count=20).run()
    assert metrics.result == {"total": 2 * sum(range(20)), "buffers": 20}


def test_multiple_copies_preserve_result():
    metrics = build(count=50, mid_copies=4).run()
    assert metrics.result["total"] == 2 * sum(range(50))
    assert metrics.result["buffers"] == 50


@pytest.mark.parametrize("policy", ["RR", "WRR", "DD"])
def test_policies_preserve_result_and_books(policy):
    engine = build(count=30, mid_copies=2, policy=policy)
    metrics = engine.run()
    assert metrics.result["total"] == 2 * sum(range(30))
    assert metrics.stream_totals("src->mid") == (30, 240)
    metrics.validate(engine.graph)
    if policy == "DD":
        assert metrics.ack_messages > 0
        assert metrics.ack_bytes == metrics.ack_messages * metrics.ack_nbytes


def test_shared_memory_payload_round_trip():
    count, length = 12, 20_000
    g = FilterGraph()
    g.add_filter(
        "src", factory=lambda: ArraySource(count, length), is_source=True
    )
    g.add_filter("sink", factory=ArraySumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    codec = BufferCodec(shm_threshold=1024)
    metrics = ProcessEngine(g, p, codec=codec).run()
    assert metrics.result == sum(float(i) * length for i in range(count))
    assert metrics.stream_totals("src->sink") == (count, count * length * 8)


def test_inline_codec_matches_shared_memory():
    count = 10
    results = []
    for codec in (BufferCodec(shm_threshold=64), BufferCodec(use_shared_memory=False)):
        g = FilterGraph()
        g.add_filter("src", factory=lambda: ArraySource(count), is_source=True)
        g.add_filter("sink", factory=ArraySumSink)
        g.connect("src", "sink")
        p = Placement().place("src", ["h0"]).place("sink", ["h0"])
        results.append(ProcessEngine(g, p, codec=codec).run().result)
    assert results[0] == results[1]


def test_dd_ack_parity_with_threaded_per_policy():
    for policy in ("RR", "WRR", "DD"):
        mt = None
        for cls in (ThreadedEngine, ProcessEngine):
            g = FilterGraph()
            g.add_filter(
                "src", factory=lambda: NumberSource(24), is_source=True
            )
            g.add_filter("mid", factory=Doubler)
            g.add_filter("sink", factory=SumSink)
            g.connect("src", "mid")
            g.connect("mid", "sink")
            p = Placement()
            p.place("src", ["h0"])
            p.place("mid", [("h0", 2), ("h1", 2)])
            p.place("sink", ["h0"])
            m = cls(g, p, policy=policy).run()
            if mt is None:
                mt = m
            else:
                assert m.ack_messages == mt.ack_messages, policy
                assert m.ack_bytes == mt.ack_bytes, policy
                assert m.result == mt.result, policy


def test_filter_error_propagates_without_deadlock():
    class Exploder(Filter):
        def handle(self, ctx, buffer):
            raise RuntimeError("kaboom")

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(5), is_source=True)
    g.add_filter("bad", factory=Exploder)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "bad")
    g.connect("bad", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("bad", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="kaboom"):
        ProcessEngine(g, p).run()


def test_missing_factory_rejected():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="factory"):
        ProcessEngine(g, p)


def test_unknown_start_method_rejected(monkeypatch):
    """The engine forks; a platform that does not know fork is refused at
    construction and pointed at the threaded engine."""
    import multiprocessing

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(1), is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    with pytest.raises(
        EngineError, match=r"start method 'fork' unavailable.*\['spawn'\]"
        r".*threaded engine",
    ):
        ProcessEngine(g, p)


def test_queue_capacity_backpressure():
    import time as _time

    class SlowSink(Filter):
        def __init__(self):
            self.count = 0

        def handle(self, ctx, buffer):
            _time.sleep(0.001)
            self.count += 1

        def result(self):
            return self.count

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(40), is_source=True)
    g.add_filter("sink", factory=SlowSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    metrics = ProcessEngine(g, p, queue_capacity=1).run()
    assert metrics.result == 40


def test_run_cycles_validate_and_finish_times():
    engine = build(count=10, mid_copies=2, policy="DD")
    results = engine.run_cycles([None, None, None])
    assert len(results) == 3
    for metrics in results:
        assert metrics.result["total"] == 2 * sum(range(10))
        metrics.validate(engine.graph)
        assert all(c.finished_at > 0.0 for c in metrics.copies)
        assert metrics.makespan == max(c.finished_at for c in metrics.copies)


def test_finished_at_recorded_per_copy():
    metrics = build(count=20, mid_copies=2).run()
    for copy in metrics.copies:
        assert copy.finished_at > 0.0
        assert copy.finished_at <= metrics.makespan + 1e-6


def test_no_shared_memory_leaked(tmp_path):
    import os

    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    before = set(os.listdir("/dev/shm"))
    g = FilterGraph()
    g.add_filter("src", factory=lambda: ArraySource(8), is_source=True)
    g.add_filter("sink", factory=ArraySumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    ProcessEngine(g, p, codec=BufferCodec(shm_threshold=1024)).run()
    after = set(os.listdir("/dev/shm"))
    leaked = {f for f in after - before if f.startswith("psm_")}
    assert not leaked


def test_rendered_image_bit_exact_vs_threaded():
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((17, 17, 17), timesteps=1, species=1, seed=5)
    isovalue = 0.35
    profile = DatasetProfile.measured(
        "tiny", dataset, nchunks=8, nfiles=4, isovalue=isovalue
    )

    def render(engine_cls, algorithm):
        storage = StorageMap.balanced(
            profile.files, [HostDisks("h0"), HostDisks("h1")]
        )
        app = IsosurfaceApp(
            profile, storage, width=48, height=48, algorithm=algorithm,
            dataset=dataset, isovalue=isovalue,
        )
        graph = app.graph("R-E-Ra-M")
        placement = app.placement(
            "R-E-Ra-M", compute_hosts=["h0", "h1"], copies_per_host=2
        )
        metrics = engine_cls(graph, placement, policy="DD").run()
        metrics.validate(graph)
        return metrics

    for algorithm in ("zbuffer", "active"):
        mt = render(ThreadedEngine, algorithm)
        mp_ = render(ProcessEngine, algorithm)
        np.testing.assert_array_equal(mt.result.image, mp_.result.image)
        assert mp_.result.image.max() > 0
        assert mt.ack_messages == mp_.ack_messages
