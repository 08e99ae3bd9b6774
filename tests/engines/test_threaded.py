"""Integration tests for the threaded engine with real filters."""

import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.engines.threaded import ThreadedEngine
from repro.errors import EngineError


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

    def handle(self, ctx, buffer):
        self.total += buffer.payload
        self.buffers += 1

    def result(self):
        return {"total": self.total, "buffers": self.buffers}


def build(count=20, mid_copies=1, policy="RR"):
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
    return ThreadedEngine(g, p, policy=policy)


def test_pipeline_computes_correct_result():
    metrics = build(count=20).run()
    assert metrics.result == {"total": 2 * sum(range(20)), "buffers": 20}


def test_multiple_copies_preserve_result():
    metrics = build(count=50, mid_copies=4).run()
    assert metrics.result["total"] == 2 * sum(range(50))
    assert metrics.result["buffers"] == 50


def test_dd_policy_works_locally():
    metrics = build(count=30, mid_copies=2, policy="DD").run()
    assert metrics.result["total"] == 2 * sum(range(30))
    assert metrics.ack_messages > 0


def test_stream_stats_recorded():
    metrics = build(count=10).run()
    assert metrics.stream_totals("src->mid") == (10, 80)
    assert metrics.stream_totals("mid->sink") == (10, 80)


def test_source_copies_partition_work():
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(30), is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement()
    p.place("src", [("h0", 3)])
    p.place("sink", ["h0"])
    metrics = ThreadedEngine(g, p, policy="RR").run()
    assert metrics.result["total"] == sum(range(30))


def test_copies_across_hosts_share_nothing():
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(40), is_source=True)
    g.add_filter("mid", factory=Doubler)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", 2), ("h1", 2)])
    p.place("sink", ["h0"])
    metrics = ThreadedEngine(g, p, policy="WRR").run()
    assert metrics.result["total"] == 2 * sum(range(40))
    mid_stats = [c for c in metrics.copies if c.filter_name == "mid"]
    assert len(mid_stats) == 4


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
        ThreadedEngine(g, p).run()


def test_missing_factory_rejected():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="factory"):
        ThreadedEngine(g, p)


def test_init_and_finalize_called():
    calls = []

    class Lifecycle(Filter):
        def init(self, ctx):
            calls.append("init")

        def handle(self, ctx, buffer):
            calls.append("handle")

        def flush(self, ctx):
            calls.append("flush")

        def finalize(self, ctx):
            calls.append("finalize")

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(2), is_source=True)
    g.add_filter("f", factory=Lifecycle)
    g.connect("src", "f")
    p = Placement().place("src", ["h0"]).place("f", ["h0"])
    ThreadedEngine(g, p).run()
    assert calls == ["init", "handle", "handle", "flush", "finalize"]


def test_write_to_unknown_stream_rejected():
    class BadWriter(Filter):
        def flush(self, ctx):
            ctx.write(DataBuffer(1), stream="nope")

    g = FilterGraph()
    g.add_filter("src", factory=BadWriter, is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="nope"):
        ThreadedEngine(g, p).run()


def test_queue_capacity_backpressure():
    # A slow consumer with a tiny queue throttles the producer without
    # losing buffers.
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
    metrics = ThreadedEngine(g, p, queue_capacity=1).run()
    assert metrics.result == 40


def test_run_cycles_equivalence_with_run():
    metrics_single = build(count=15).run()
    [metrics_cycle] = build(count=15).run_cycles([None])
    assert metrics_cycle.result == metrics_single.result
    assert metrics_cycle.stream_totals("src->mid") == metrics_single.stream_totals(
        "src->mid"
    )


def test_finished_at_recorded_per_copy():
    # Regression: finished_at used to stay 0.0 on threaded runs.
    metrics = build(count=20, mid_copies=2).run()
    for copy in metrics.copies:
        assert copy.finished_at > 0.0
        assert copy.finished_at <= metrics.makespan + 1e-6


def test_ack_bytes_match_ack_messages():
    # Regression: ack_messages was counted but ack_bytes never accrued.
    metrics = build(count=30, mid_copies=2, policy="DD").run()
    assert metrics.ack_messages > 0
    assert metrics.ack_bytes == metrics.ack_messages * metrics.ack_nbytes


def test_run_metrics_validate_passes():
    engine = build(count=25, mid_copies=3, policy="DD")
    engine.run().validate(engine.graph)


def test_run_cycles_validate_and_finish_times():
    engine = build(count=10, mid_copies=2, policy="DD")
    for metrics in engine.run_cycles([None, None, None]):
        metrics.validate(engine.graph)
        assert all(c.finished_at > 0.0 for c in metrics.copies)


def test_close_protocol_and_direct_acks_under_thread_contention():
    """Many more copies than cores, a tiny switch interval, several cycles.

    The thread transport's end-of-work counter and the consumer-applied DD
    acks are shared between copy threads: a lost marker count or a lost
    wake-up shows as a hang (caught by the join timeout), a lost buffer as a
    wrong sum or a failed conservation check.
    """
    import sys
    import threading

    count, cycles = 240, 4
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("mid", factory=Doubler)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", [("h0", 6)])  # NumberSource partitions by per-host index
    p.place("mid", [("h0", 6), ("h1", 6)])
    p.place("sink", ["h0"])
    engine = ThreadedEngine(g, p, policy="DD", queue_capacity=2)

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=lambda: runs.extend(engine.run_cycles([None] * cycles)),
            daemon=True,
        )
        runner.start()
        runner.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "threaded engine wedged under contention"
    assert len(runs) == cycles
    for metrics in runs:
        metrics.validate(g)
        # SumSink keeps counting across cycles (it never resets), so only the
        # per-cycle stream totals are cycle-local.
        assert metrics.stream_totals("src->mid")[0] == count
        assert metrics.stream_totals("mid->sink")[0] == count
        assert metrics.ack_messages == 2 * count
    assert runs[-1].result == {
        "total": cycles * 2 * sum(range(count)), "buffers": cycles * count
    }
