"""Crash-path lifecycle: no extent or segment outlives a failed run.

Every drain path — a consumer that raises, a consumer that dies without
cleanup, a producer abandoned mid-send — must acknowledge discarded
envelopes (so DD windows upstream keep moving) *and* give their arena
extents back.  These tests inject each failure with payloads large enough
to go out of band and assert two ledgers afterwards: every arena's record
table is empty, and ``/dev/shm`` is back to its pre-run state.  The
filter-raises cases run on both real engines (one runtime, two
transports), each under a hard join timeout: a hang is a failure, not a
stalled suite.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import Arena, BufferCodec
from repro.core.fuse import fuse
from repro.core.policies import make_policy_factory
from repro.engines import ProcessEngine, ThreadedEngine, process
from repro.engines.pool import WarmPool
from repro.engines.runtime import World, Writer
from repro.errors import EngineError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process engine needs the fork start method",
)


class ArraySource(Filter):
    """Emits float64 arrays big enough for the shared-memory payload path."""

    def __init__(self, count, length=4096):
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
        self.total += float(buffer.payload.sum())

    def result(self):
        return self.total


@pytest.fixture
def shm_ledger():
    """Snapshot /dev/shm; yields a closure returning newly leaked psm_*."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    before = set(os.listdir("/dev/shm"))

    def leaked():
        # The resource tracker unlinks asynchronously on worker exit;
        # give stragglers a moment before declaring a leak.
        for _ in range(50):
            now = {
                f
                for f in set(os.listdir("/dev/shm")) - before
                if f.startswith("psm_")
            }
            if not now:
                return set()
            time.sleep(0.02)
        return now

    return leaked


@pytest.fixture
def arena_ledger(monkeypatch):
    """Records every arena made in this process from here on (the engines
    make them before forking); yields a closure returning ``{owner: live
    extents}`` for those that still hold one (``.arenas`` lists them all).
    The record table lives in the shared mapping, so forked owners'
    ledgers read here too."""
    made = []
    init = Arena.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Arena, "__init__", recording)

    def leaked():
        return {a.owner: n for a in made if (n := a.live())}

    leaked.arenas = made
    return leaked


def _crash_graph(sink_factory, count=10):
    g = FilterGraph()
    g.add_filter(
        "src", factory=lambda: ArraySource(count), is_source=True
    )
    g.add_filter("sink", factory=sink_factory)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return g, p


def _run_expecting_failure(engine, match, timeout=60.0, uows=None):
    """``engine.run()`` must raise ``EngineError`` within ``timeout``.

    The run (``run_cycles(uows)`` when units of work are given) happens on a
    helper thread so a wedged engine fails the test at the join instead of
    hanging the suite.
    """
    outcome = []

    def target():
        try:
            outcome.append(engine.run_cycles(uows) if uows else engine.run())
        except BaseException as exc:  # noqa: BLE001 - inspected below
            outcome.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"engine.run() still running after {timeout}s"
    (exc,) = outcome
    assert isinstance(exc, EngineError), exc
    assert match in str(exc), exc
    return exc


both_engines = pytest.mark.parametrize(
    "engine_cls", [ThreadedEngine, ProcessEngine]
)


@both_engines
def test_consumer_exception_releases_segments(engine_cls, shm_ledger, arena_ledger):
    """A consumer that raises drains its input, acking and releasing — and
    the lease of the buffer it was handling is released too."""

    class ExplodingSink(Filter):
        def handle(self, ctx, buffer):
            raise RuntimeError("boom")

    g, p = _crash_graph(ExplodingSink)
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    _run_expecting_failure(engine, "boom")
    assert not shm_ledger()
    assert not arena_ledger()


@both_engines
@pytest.mark.parametrize("hook", ["flush", "finalize", "result"])
def test_failure_after_input_closed_does_not_hang(
    engine_cls, hook, shm_ledger, arena_ledger
):
    """A non-source filter raising once its input is closed ends the run.

    Its share of the stream is already closed — the STOP it would drain to
    has been consumed — so the crash drain must not read the queue again.
    The failed run still carries the partial metrics.
    """

    def explode(self, *_args):
        raise RuntimeError(f"{hook} exploded")

    sink_cls = type("LateFailingSink", (ArraySumSink,), {hook: explode})
    g, p = _crash_graph(sink_cls)
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
    )
    exc = _run_expecting_failure(engine, f"{hook} exploded")
    (metrics,) = exc.metrics
    assert metrics.stream_totals("src->sink")[0] == 10
    assert metrics.filter_buffers_in("sink") == 10
    assert not shm_ledger()
    assert not arena_ledger()


@both_engines
@pytest.mark.parametrize("hook", ["handle", "flush"])
def test_fused_inner_part_failure_names_the_fused_copy(
    engine_cls, hook, shm_ledger, arena_ledger
):
    """A part raising inside a fused stage fails that stage's copy.

    The error names the fused filter's copy and cycle (the parts have no
    identity of their own), the crash drain runs on the fused copy's
    queue, and nothing leaks.
    """

    class Forward(Filter):
        def handle(self, ctx, buffer):
            ctx.write(DataBuffer(buffer.nbytes, payload=buffer.payload.copy()))

    def explode(self, *_args):
        raise RuntimeError(f"inner {hook} exploded")

    inner_cls = type("ExplodingPart", (Forward,), {hook: explode})
    g = FilterGraph()
    g.add_filter("src", factory=lambda: ArraySource(10), is_source=True)
    g.add_filter("mid", factory=lambda: fuse(Forward(), inner_cls(), Forward()))
    g.add_filter("sink", factory=ArraySumSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("mid", ["h0"]).place("sink", ["h0"])
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    exc = _run_expecting_failure(engine, f"inner {hook} exploded")
    assert "mid@h0#0 cycle 0" in str(exc)
    assert not shm_ledger()
    assert not arena_ledger()


@both_engines
def test_write_whose_encode_raises_fails_the_cycle(
    engine_cls, shm_ledger, arena_ledger
):
    """A payload that cannot pickle fails its copy's cycle, by name.

    Its large array comes first, so the pickler meets the lock after it
    has set the array aside: nothing may have been placed for it, and the
    buffer sent before it still reaches the sink and is given back.
    """

    class UnpicklableSource(Filter):
        def flush(self, ctx):
            ctx.write(DataBuffer(8, payload=np.ones(4096)))
            payload = {"a": np.zeros(100_000, np.float32), "b": threading.Lock()}
            ctx.write(DataBuffer(400_000, payload=payload))

    g = FilterGraph()
    g.add_filter("src", factory=UnpicklableSource, is_source=True)
    g.add_filter("sink", factory=ArraySumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    engine = engine_cls(g, p, policy="DD", codec=BufferCodec(shm_threshold=1024))
    exc = _run_expecting_failure(engine, "src@h0#0 cycle 0")
    assert "cannot pickle" in str(exc)
    (metrics,) = exc.metrics
    assert metrics.result == 4096.0
    assert not shm_ledger()
    assert not arena_ledger()


@both_engines
def test_build_failure_releases_segments(engine_cls, shm_ledger, arena_ledger):
    """A copy whose factory raises still drains (and frees) its input."""

    def broken_factory():
        raise RuntimeError("no such dataset")

    g, p = _crash_graph(broken_factory)
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    _run_expecting_failure(engine, "no such dataset")
    assert not shm_ledger()
    assert not arena_ledger()


@both_engines
def test_producer_death_with_consumer_blocked_on_dd_window(engine_cls, shm_ledger, arena_ledger):
    """The source dies while the middle copy sits blocked on a full window.

    ``mid`` forwards into a slow sink through DD window 1, so it is blocked
    in ``send`` when ``src`` raises mid-stream; the source's end-of-work
    still arrives, ``mid`` finishes what it had, and nothing leaks.
    """

    class DyingSource(ArraySource):
        def flush(self, ctx):
            super().flush(ctx)
            raise RuntimeError("source died")

    class Forward(Filter):
        def handle(self, ctx, buffer):
            ctx.write(DataBuffer(buffer.nbytes, payload=buffer.payload.copy()))

    class SlowSink(ArraySumSink):
        def handle(self, ctx, buffer):
            time.sleep(0.01)
            super().handle(ctx, buffer)

    g = FilterGraph()
    g.add_filter("src", factory=lambda: DyingSource(8), is_source=True)
    g.add_filter("mid", factory=Forward)
    g.add_filter("sink", factory=SlowSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["h0"]).place("mid", ["h0"]).place("sink", ["h0"])
    engine = engine_cls(
        g, p, policy=make_policy_factory("DD", window=1),
        codec=BufferCodec(shm_threshold=1024), queue_capacity=1,
    )
    exc = _run_expecting_failure(engine, "source died")
    (metrics,) = exc.metrics
    assert metrics.result == sum(float(i) * 4096 for i in range(8))
    assert not shm_ledger()
    assert not arena_ledger()


class MappedSource(Filter):
    """Emits buffers that mix copied arrays with views of a mapped file.

    ``uow = {"fault": "gone" | "short"}`` makes the cycle stream from a
    private copy of the file and damage it after mapping, before the first
    send: unlinked, or cut in the middle of buffer 5.  The mapping itself
    stays valid here; only a consumer opening the file by name can tell.
    """

    COUNT = 10
    LENGTH = 4096  # float64 values per view: 32 KiB, over the threshold

    def __init__(self, path):
        self.path = path

    def flush(self, ctx):
        fault = ctx.uow.get("fault") if isinstance(ctx.uow, dict) else None
        path = self.path
        if fault:
            path = f"{self.path}.{fault}"
            with open(self.path, "rb") as src, open(path, "wb") as dst:
                dst.write(src.read())
        mapped = np.memmap(path, dtype=np.float64, mode="r")
        if fault == "gone":
            os.unlink(path)
        elif fault == "short":
            os.truncate(path, int(5.5 * self.LENGTH * 8))
        for i in range(self.COUNT):
            view = np.asarray(mapped[i * self.LENGTH : (i + 1) * self.LENGTH])
            before = np.full(self.LENGTH, float(i))
            after = np.full(self.LENGTH, -float(i))
            # Decode order is dict order: one segment is attached before
            # the mapped region is resolved, one never is.
            payload = {"before": before, "mapped": view, "after": after}
            ctx.write(DataBuffer(view.nbytes, payload=payload, tags={"seq": i}))


class MappedSumSink(Filter):
    def init(self, ctx):
        self.total = 0.0

    def handle(self, ctx, buffer):
        seq = float(buffer.tags["seq"])
        assert buffer.payload["before"][-1] == seq
        assert buffer.payload["after"][-1] == -seq
        assert not buffer.payload["mapped"].flags.writeable
        self.total += float(buffer.payload["mapped"].sum())

    def result(self):
        return self.total


@pytest.fixture
def mapped_file(tmp_path):
    """(path, sum of its values) of a file ``MappedSource`` streams."""
    values = np.random.default_rng(5).random(
        MappedSource.COUNT * MappedSource.LENGTH
    )
    path = tmp_path / "values.bin"
    values.tofile(path)
    total = sum(
        float(part.sum()) for part in np.split(values, MappedSource.COUNT)
    )
    return str(path), total


def _mapped_graph(path):
    g = FilterGraph()
    g.add_filter("src", factory=lambda: MappedSource(path), is_source=True)
    g.add_filter("sink", factory=MappedSumSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return g, p


@both_engines
@pytest.mark.parametrize(
    "fault, complaint", [("gone", "file is gone"), ("short", "file has 180224")]
)
def test_damaged_mapped_file_fails_the_cycle(
    engine_cls, fault, complaint, mapped_file, shm_ledger, arena_ledger
):
    """A file region that cannot be mapped fails the cycle, by exception.

    The consumer checks the file by name before it touches a page, so a
    file unlinked or cut short under the descriptor is an error naming the
    file, the copy and the cycle — not a SIGBUS — and the segments that
    travelled in the same buffers are released.
    """
    path, total = mapped_file
    g, p = _mapped_graph(path)
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    good = engine.run_cycles([None])[0]
    assert good.result == total
    assert not shm_ledger()
    assert not arena_ledger()

    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=2,
    )
    exc = _run_expecting_failure(
        engine, f"{path}.{fault}", uows=[{"fault": fault}]
    )
    assert complaint in str(exc)
    assert "sink@h0#0 cycle 0" in str(exc)
    assert not shm_ledger()
    assert not arena_ledger()


@pytest.mark.parametrize("fault", ["gone", "short"])
def test_damaged_mapped_file_breaks_the_warm_pool(fault, mapped_file, shm_ledger, arena_ledger):
    """On a warm pool the failed query names the file, copy and cycle, the
    pool is retired (its copies may hold mappings of damaged storage), and
    a rebuilt pool answers the next query exactly."""
    path, total = mapped_file
    g, p = _mapped_graph(path)
    codec = BufferCodec(shm_threshold=1024)
    pool = WarmPool(g, p, policy="DD", codec=codec, queue_capacity=2)
    try:
        assert pool.submit(None).result(timeout=60.0).result == total
        with pytest.raises(EngineError) as failure:
            pool.submit({"fault": fault}).result(timeout=60.0)
        assert f"{path}.{fault}" in str(failure.value)
        assert "sink@h0#0 cycle 1" in str(failure.value)
        deadline = time.monotonic() + 30.0
        while pool.usable and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.stats()["broken"]
        with pytest.raises(EngineError, match="could not decode its input"):
            pool.submit(None)
    finally:
        pool.close()
    with WarmPool(g, p, policy="DD", codec=codec, queue_capacity=2) as rebuilt:
        assert rebuilt.submit(None).result(timeout=60.0).result == total
    assert not shm_ledger()
    assert not arena_ledger()


forked_parents = pytest.mark.parametrize("engine_cls", [ProcessEngine, WarmPool])


def _close(engine):
    """Retire a warm pool's copies (a batch engine has none left)."""
    getattr(engine, "close", lambda: None)()


@forked_parents
def test_consumer_hard_crash_releases_segments(engine_cls, shm_ledger, arena_ledger):
    """A consumer dying without cleanup leaves the parent to drain.

    The producer keeps sending into the dead copy set — blocked on the
    capacity-1 queue and the DD window, an encoded buffer in hand — so the
    supervisor must let it leave by itself: discarding the stranded
    envelopes both releases their segments and acks them, which unblocks
    the producer.  (A copy killed *mid-handle* necessarily loses the one
    segment it was leasing until the resource tracker reclaims it at
    interpreter exit; dying in init models every parent-recoverable
    hard-crash point.)
    """

    class DyingSink(Filter):
        def init(self, ctx):
            time.sleep(0.3)  # the producer is surely blocked in put by now
            os._exit(3)

    g, p = _crash_graph(DyingSink, count=12)
    engine = engine_cls(
        g, p, policy="DD", codec=BufferCodec(shm_threshold=1024),
        queue_capacity=1,
    )
    try:
        exc = _run_expecting_failure(engine, "exit code 3")
        assert "sink@h0#0" in str(exc)
    finally:
        _close(engine)
    assert not shm_ledger()
    assert not arena_ledger()


@forked_parents
@pytest.mark.parametrize("killed", [0, 1])
def test_idle_sibling_killed_does_not_hang(engine_cls, killed, tmp_path, monkeypatch):
    """One of two sibling consumers is SIGKILLed while idle in its receive.

    A copy-set queue is a pipe, so the dead copy holds nothing its sibling
    needs: the survivor reads every buffer, closes the stream and leaves by
    itself, exit code 0, once its stop arrives.  The error names the dead
    copy and its exit code, the whole run ends well inside the leave bound,
    and fresh copies answer correctly afterwards.
    """
    pid_file = tmp_path / "sink.pid"
    started = []
    start = process.ForkedCopies.start
    monkeypatch.setattr(
        process.ForkedCopies, "start", lambda self: (started.append(self), start(self))
    )

    class LateSource(Filter):
        def __init__(self, delay):
            self.delay = delay

        def flush(self, ctx):
            time.sleep(self.delay)
            for i in range(6):
                ctx.write(DataBuffer(8, payload=i))

    class PidSink(Filter):
        def init(self, ctx):
            self.total = 0
            if ctx.copy_index == killed:
                pid_file.write_text(str(os.getpid()))
            else:
                time.sleep(0.3)  # the copy to be killed receives first

        def handle(self, ctx, buffer):
            self.total += buffer.payload

        def result(self):
            return self.total

    def build(delay):
        g = FilterGraph()
        g.add_filter("src", factory=lambda: LateSource(delay), is_source=True)
        g.add_filter("sink", factory=PidSink)
        g.connect("src", "sink")
        p = Placement().place("src", ["h0"]).place("sink", [("h0", 2)])
        return engine_cls(g, p, policy="RR")

    def kill_the_sink_copy():
        while not pid_file.exists() or not pid_file.read_text():
            time.sleep(0.01)
        time.sleep(0.5)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)

    t0 = time.monotonic()
    engine = build(delay=1.2)
    threading.Thread(target=kill_the_sink_copy, daemon=True).start()
    try:
        exc = _run_expecting_failure(engine, f"sink@h0#{killed}", timeout=20.0)
        assert f"exit code {-signal.SIGKILL}" in str(exc)
    finally:
        _close(engine)
    assert time.monotonic() - t0 < 3.0
    (copies,) = started
    (survivor,) = (
        c.cid for c in copies.world.plan
        if c.spec.name == "sink" and c.copy_index != killed
    )
    assert copies.procs[survivor].exitcode == 0

    engine = build(delay=0.0)
    try:
        assert sum(engine.run().result) == sum(range(6))
    finally:
        _close(engine)


def test_abandoned_send_releases_encoded_payload(shm_ledger, arena_ledger):
    """Writer.send releases the already-encoded segment when it raises."""

    class ExplodingPolicy:
        needs_ack = False

        def bind(self, targets):
            pass

        def select(self):
            raise RuntimeError("routing failed")

    g, p = _crash_graph(ArraySumSink)
    world = World(g, p, ExplodingPolicy, BufferCodec(shm_threshold=64), 1, 1)
    src = world.plan[0]
    writer = Writer(world, src, 0, 0, src.spec.outputs[0], None)
    arr = np.ones(4096, dtype=np.float64)
    with pytest.raises(RuntimeError, match="routing failed"):
        writer.send(DataBuffer(arr.nbytes, payload=arr))
    assert not shm_ledger()
    assert not arena_ledger()


def test_resource_tracker_clean_at_exit():
    """A crashing run leaves nothing for the resource tracker to complain
    about when the whole interpreter exits (the end-of-process check the
    in-process ledger cannot perform)."""
    script = """
import numpy as np
from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.buffer import BufferCodec
from repro.engines.process import ProcessEngine
from repro.errors import EngineError

class Source(Filter):
    def flush(self, ctx):
        for i in range(10):
            arr = np.full(4096, float(i))
            ctx.write(DataBuffer(arr.nbytes, payload=arr))

class Bad(Filter):
    def handle(self, ctx, buffer):
        raise RuntimeError("boom")

g = FilterGraph()
g.add_filter("src", factory=Source, is_source=True)
g.add_filter("sink", factory=Bad)
g.connect("src", "sink")
p = Placement().place("src", ["h0"]).place("sink", ["h0"])
try:
    ProcessEngine(g, p, policy="DD",
                  codec=BufferCodec(shm_threshold=1024)).run()
except EngineError:
    print("CRASHED-AS-EXPECTED")
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CRASHED-AS-EXPECTED" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
