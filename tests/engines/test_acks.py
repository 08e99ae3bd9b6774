"""DD acknowledgments on the real transports.

A consumer acknowledges a buffer by counting up a counter in its
producer's arena, under the arena lock, and ringing the arena's bell; the
producer's writer waits for window room in the same loop, on the same
bell, as a placement waits for space.  These tests hold threads, forked
batches and warm pools to that: every ack is traced, a producer that runs
into its window and its arena in turn finishes with exact results, and DD
keeps most buffers away from a copy that is slow.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core import buffer as buffer_module
from repro.core.buffer import BufferCodec
from repro.core.policies import make_policy_factory
from repro.core.tracing import Tracer
from repro.engines import ProcessEngine, ThreadedEngine
from repro.engines.pool import WarmPool
from tests.engines.test_arenas import LENGTH, _Pool, _run
from tests.engines.test_crash_drain import arena_ledger  # noqa: F401  (fixture)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked copies need the fork start method",
)


class NumberSource(Filter):
    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            ctx.write(DataBuffer(8, payload=i))


class SleepySink(Filter):
    """Sleeps ``delay`` seconds per buffer on the hosts in ``slow_hosts``."""

    def __init__(self, delay, slow_hosts=None):
        self.delay = delay
        self.slow_hosts = slow_hosts

    def init(self, ctx):
        self.total = 0

    def handle(self, ctx, buffer):
        if self.slow_hosts is None or ctx.host in self.slow_hosts:
            time.sleep(self.delay)
        payload = buffer.payload
        self.total += int(payload.sum()) if isinstance(payload, np.ndarray) else payload

    def result(self):
        return self.total


# -- every ack is traced --------------------------------------------------------
def _traced(engine_cls, graph, placement, tracer):
    if engine_cls is WarmPool:
        with WarmPool(graph, placement, policy="DD") as pool:
            return pool.submit(None, tracer=tracer).result(timeout=60.0)
    (metrics,) = _run(engine_cls(graph, placement, policy="DD", tracer=tracer), [None])
    return metrics


@pytest.mark.parametrize(
    "engine_cls", [ThreadedEngine, ProcessEngine, WarmPool],
    ids=["threads", "forked-batch", "warm-pool"],
)
def test_every_ack_is_traced(engine_cls):
    """The consumer closes each round trip and traces it under the
    producer's label, so no ``acked`` span can land after the producer has
    shipped its cycle's trace: one span per ack, every one the source's."""
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(12), is_source=True)
    g.add_filter("sink", factory=lambda: SleepySink(0.02))
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", [("h0", 2)])
    tracer = Tracer()
    metrics = _traced(engine_cls, g, p, tracer)
    assert not isinstance(metrics, BaseException), metrics
    assert metrics.ack_messages == 12
    assert len(tracer.ack_latencies()) == metrics.ack_messages
    assert len(tracer.ack_latencies("src@h0#0")) == metrics.ack_messages
    assert all(latency >= 0.0 for latency in tracer.ack_latencies())


# -- one wait, one signal --------------------------------------------------------
class AlternatingSource(Filter):
    """Large payloads (placed in the arena) and small ones (pickled inline)
    by turns."""

    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            length = LENGTH if i % 2 == 0 else 1
            arr = np.full(length, i, dtype=np.int64)
            ctx.write(DataBuffer(arr.nbytes, payload=arr))


@pytest.mark.parametrize(
    "engine_cls", [ThreadedEngine, ProcessEngine, _Pool],
    ids=["threads", "forked-batch", "warm-pool"],
)
def test_producer_waits_on_window_and_arena_in_turn(
    engine_cls, monkeypatch, arena_ledger  # noqa: F811
):
    """A window of 1 and an arena of one payload, in front of a consumer
    that sleeps in ``handle``.  A small buffer waits for the window (the
    previous one is still queued), a large one for the arena (the large one
    before it is still in ``handle``): the source alternates between its
    two waits on one bell and finishes with exact results."""
    capacity = LENGTH * 8
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", capacity)
    count = 24
    g = FilterGraph()
    g.add_filter("src", factory=lambda: AlternatingSource(count), is_source=True)
    g.add_filter("sink", factory=lambda: SleepySink(0.005))
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    tracer = None if engine_cls is _Pool else Tracer()
    kw = {} if tracer is None else {"tracer": tracer}
    engine = engine_cls(
        g, p, policy=make_policy_factory("DD", window=1),
        codec=BufferCodec(shm_threshold=1024), **kw,
    )
    metrics = _run(engine, [None, None], timeout=60.0)
    assert not isinstance(metrics, BaseException), metrics
    expected = sum(i * (LENGTH if i % 2 == 0 else 1) for i in range(count))
    assert [m.result for m in metrics] == [expected] * 2
    assert [m.ack_messages for m in metrics] == [count] * 2
    assert max(a.high_water for a in arena_ledger.arenas) == capacity
    if tracer is not None:
        assert tracer.spans("src@h0#0", "blocked")  # the window held it up
    assert not arena_ledger()


# -- DD routes by acknowledgments ------------------------------------------------
#: The slow copy's largest share of the buffers.  It acknowledges at receive
#: but sleeps 20 ms per ``handle``, so at most a window of buffers waits in
#: its queue while the fast copy takes the rest as fast as they are sent.
#: Round robin would give it half; on a 2-core VM it gets 3 of 60.
SLOW_SHARE_BOUND = 0.25


@pytest.mark.parametrize(
    "engine_cls", [ThreadedEngine, ProcessEngine], ids=["threads", "forks"]
)
def test_dd_keeps_most_buffers_from_a_slow_copy(engine_cls):
    """Two copy sets of one copy each behind a window of 2; the one on the
    source's own host (the tie-break's favourite) is slow."""
    count = 60
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("sink", factory=lambda: SleepySink(0.02, slow_hosts={"h0"}))
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0", "h1"])
    engine = engine_cls(g, p, policy=make_policy_factory("DD", window=2))
    (metrics,) = _run(engine, [None], timeout=60.0)
    assert sum(metrics.result) == sum(range(count))
    buffers_in = {
        c.host: c.buffers_in for c in metrics.copies if c.filter_name == "sink"
    }
    assert sum(buffers_in.values()) == count
    assert 0 < buffers_in["h0"] / count < SLOW_SHARE_BOUND, buffers_in
