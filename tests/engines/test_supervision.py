"""Supervisor behaviour: block on process sentinels, never busy-poll.

The parent of forked copies used to loop ``is_alive()`` with a 10 ms sleep
per lap for the whole run.  The one supervisor thread of
:class:`~repro.engines.process.ForkedCopies` — under a batch
``ProcessEngine`` run and under a ``WarmPool`` query alike — blocks in
one poll selector, kept for the world's life, on the worker sentinels: no
timeout while every worker is healthy, a short sweep interval only after
a death, while the survivors of the abandoned world are leaving.
"""

import multiprocessing
import os
import selectors
import threading
import time

import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.engines.pool import WarmPool
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process engine needs the fork start method",
)


class NumberSource(Filter):
    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(8, payload=i))


class SumSink(Filter):
    def init(self, ctx):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


SUPERVISOR = "copies-supervisor"  # the thread ForkedCopies supervises on


def run_batch(graph, placement):
    return ProcessEngine(graph, placement, policy="RR").run()


def run_pool_query(graph, placement):
    with WarmPool(graph, placement, policy="RR") as pool:
        return pool.submit(None).result(timeout=60.0)


both_parents = pytest.mark.parametrize("run", [run_batch, run_pool_query])


def source_to_sink(count):
    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(count), is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    return g, Placement().place("src", ["h0"]).place("sink", ["h0"])


@pytest.fixture
def wait_calls(monkeypatch):
    """Record every poll selector's select call (and pass through)."""
    calls = []
    real_select = selectors.PollSelector.select

    def recording_select(selector, timeout=None):
        calls.append(
            {"timeout": timeout, "thread": threading.current_thread().name}
        )
        return real_select(selector, timeout=timeout)

    monkeypatch.setattr(selectors.PollSelector, "select", recording_select)
    return calls


@pytest.fixture
def sleep_calls(monkeypatch):
    """Record every time.sleep call in this process (and pass through)."""
    calls = []
    real_sleep = time.sleep

    def recording_sleep(seconds):
        calls.append(
            {"seconds": seconds, "thread": threading.current_thread().name}
        )
        return real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", recording_sleep)
    return calls


@both_parents
def test_healthy_supervision_blocks_without_polling(run, wait_calls, sleep_calls):
    """With healthy workers the supervisor never sleeps or times out."""
    metrics = run(*source_to_sink(20))
    assert metrics.result == sum(range(20))

    supervisor_waits = [c for c in wait_calls if c["thread"] == SUPERVISOR]
    assert supervisor_waits, "supervisor never waited in its selector"
    assert all(c["timeout"] is None for c in supervisor_waits), (
        "healthy supervision must block indefinitely on the sentinels, "
        f"got timeouts {[c['timeout'] for c in supervisor_waits]}"
    )
    polls = [c for c in sleep_calls if c["thread"] == SUPERVISOR]
    assert not polls, f"supervisor slept in a poll loop: {polls}"


@both_parents
def test_crash_supervision_switches_to_sweep_timeout(run, wait_calls):
    """After a worker dies, waits carry the sweep timeout — and the run ends."""

    class Crasher(Filter):
        def handle(self, ctx, buffer):
            os._exit(11)

    g = FilterGraph()
    g.add_filter("src", factory=lambda: NumberSource(6), is_source=True)
    g.add_filter("bad", factory=Crasher)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "bad")
    g.connect("bad", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("bad", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="exit code 11"):
        run(g, p)
    # The first wait (everything healthy) blocks; once the crash is seen
    # at least one subsequent wait must use the finite sweep timeout.
    timeouts = [c["timeout"] for c in wait_calls if c["thread"] == SUPERVISOR]
    assert timeouts[0] is None
    assert any(t is not None for t in timeouts)


def test_batch_units_of_work_ride_the_fork():
    """Cycles submitted before the fork reach the copies by inheritance, so a
    batch run's units of work need not pickle (a pool's arrive over a pipe)."""

    class ScaledSource(Filter):
        def flush(self, ctx):
            for i in range(5):
                ctx.write(DataBuffer(8, payload=ctx.uow["scale"](i)))

    g = FilterGraph()
    g.add_filter("src", factory=ScaledSource, is_source=True)
    g.add_filter("sink", factory=SumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    uows = [{"scale": lambda i, k=k: i * k} for k in (1, 2, 3)]
    results = ProcessEngine(g, p).run_cycles(uows)
    assert [m.result for m in results] == [10, 20, 30]
