"""Cross-engine metrics parity: every engine keeps the same books.

One small shared graph (source -> worker x2 -> sink) is run through the
threaded engine (real filters, wall clock), the process engine (real
filters, one OS process per copy, wall clock) and the simulated engine
(cost models, sim clock).  The *shapes* of the resulting ``RunMetrics``
must agree: per-copy ``finished_at`` populated everywhere, ``ack_bytes``
accounted symmetrically with ``ack_messages``, stream totals identical, and
``RunMetrics.validate()`` green everywhere.  All engines must also emit the
unified trace schema and the traces must survive a JSONL round trip.
"""

import time

import pytest

from repro.core import (
    DataBuffer,
    Filter,
    FilterGraph,
    Placement,
)
from repro.core.fuse import StageModel
from repro.core.tracing import EVENT_KINDS, Tracer
from repro.engines import ProcessEngine, SimulatedEngine, ThreadedEngine
from repro.engines.runtime import (
    ACK,
    ANNOUNCE,
    DISCARD,
    FINISH,
    FLUSH,
    INIT,
    PRODUCE,
    RECV,
    SEND,
    WORK,
)
from repro.sim import Environment, homogeneous_cluster

COUNT = 12
NBYTES = 64


class RealSource(Filter):
    def flush(self, ctx):
        for i in range(COUNT):
            if i % ctx.total_copies == ctx.copy_index:
                ctx.write(DataBuffer(NBYTES, payload=i))


class RealWorker(Filter):
    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(NBYTES, payload=buffer.payload * 2))


class RealSink(Filter):
    def __init__(self):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


class SourceModel(StageModel):
    source = True

    def units(self, ctx):
        for i in range(COUNT):
            if i % ctx.total_copies == ctx.copy_index:
                yield 0, 0, False, {}

    def step(self, unit, cost):
        return cost + 0.001, unit

    def packets(self, unit):
        return [DataBuffer(NBYTES)]


class SimWorkerModel(StageModel):
    def step(self, unit, cost):
        return cost + 0.002, unit

    def packets(self, unit):
        return [DataBuffer(NBYTES)]


class SimSinkModel(StageModel):
    def step(self, unit, cost):
        return cost + 0.001, None


def shared_graph():
    """The same logical graph with both real and simulated factories."""
    g = FilterGraph()
    g.add_filter(
        "src", factory=RealSource, sim_factory=SourceModel, is_source=True
    )
    g.add_filter("work", factory=RealWorker, sim_factory=SimWorkerModel)
    g.add_filter("sink", factory=RealSink, sim_factory=SimSinkModel)
    g.connect("src", "work")
    g.connect("work", "sink")
    return g


def shared_placement():
    return (
        Placement()
        .place("src", ["node0"])
        .place("work", [("node0", 1), ("node1", 1)])
        .place("sink", ["node0"])
    )


def run_threaded(policy="DD", tracer=None):
    graph = shared_graph()
    metrics = ThreadedEngine(
        graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


def run_process(policy="DD", tracer=None):
    graph = shared_graph()
    metrics = ProcessEngine(
        graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


def run_simulated(policy="DD", tracer=None):
    graph = shared_graph()
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    metrics = SimulatedEngine(
        cluster, graph, shared_placement(), policy=policy, tracer=tracer
    ).run()
    return graph, metrics


ENGINES = {
    "threaded": run_threaded,
    "process": run_process,
    "simulated": run_simulated,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_finished_at_populated_on_every_copy(engine):
    # Regression: the threaded engine used to leave finished_at at 0.0.
    _graph, metrics = ENGINES[engine]()
    assert len(metrics.copies) == 4
    for copy in metrics.copies:
        assert copy.finished_at > 0.0, (engine, copy)
        if engine in ("threaded", "process"):
            # Real-engine finish times are run-relative: within the makespan.
            assert copy.finished_at <= metrics.makespan + 1e-6


def test_threaded_finished_at_is_run_relative():
    _graph, metrics = run_threaded()
    last = max(c.finished_at for c in metrics.copies)
    assert last <= metrics.makespan + 1e-6
    assert metrics.makespan < 60.0  # seconds since run start, not epoch time


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_ack_bytes_accounted_with_messages(engine):
    # Regression: the threaded engine counted ack_messages but never
    # ack_bytes, silently zeroing DD overhead in threaded runs.
    _graph, metrics = ENGINES[engine]("DD")
    assert metrics.ack_messages > 0
    assert metrics.ack_nbytes > 0
    assert metrics.ack_bytes == metrics.ack_messages * metrics.ack_nbytes


def test_ack_parity_across_engines():
    _g1, threaded = run_threaded("DD")
    _g2, process = run_process("DD")
    _g3, simulated = run_simulated("DD")
    # Same graph, same buffer count, DD everywhere: identical ack volume.
    assert threaded.ack_messages == simulated.ack_messages
    assert threaded.ack_messages == process.ack_messages
    assert threaded.ack_bytes == simulated.ack_bytes
    assert threaded.ack_bytes == process.ack_bytes


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_stream_totals_and_validate(engine):
    graph, metrics = ENGINES[engine]()
    assert metrics.stream_totals("src->work") == (COUNT, COUNT * NBYTES)
    assert metrics.stream_totals("work->sink") == (COUNT, COUNT * NBYTES)
    metrics.validate(graph)  # conservation holds with graph cross-checks


def test_stream_totals_identical_across_engines():
    totals = {}
    for engine, runner in ENGINES.items():
        _graph, metrics = runner()
        totals[engine] = {
            name: (s.buffers, s.bytes) for name, s in metrics.streams.items()
        }
    assert totals["threaded"] == totals["simulated"]
    assert totals["threaded"] == totals["process"]


def test_io_time_where_applicable():
    # Disk time is modelled only by the simulated engine; the threaded
    # engine reads inside filter code.  Both leave the field >= 0 and the
    # simulated engine populates it when the source declares reads.
    class ReadingSource(StageModel):
        source = True

        def units(self, ctx):
            yield 1_000_000, 0, False, {}

        def step(self, unit, cost):
            return cost, unit

        def packets(self, unit):
            return [DataBuffer(NBYTES)]

    g = FilterGraph()
    g.add_filter("src", sim_factory=ReadingSource, is_source=True)
    g.add_filter("sink", sim_factory=SimSinkModel)
    g.connect("src", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["node0"])
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    assert metrics.filter_io_time("src") > 0.0
    _graph, threaded = run_threaded()
    assert all(c.io_time >= 0.0 for c in threaded.copies)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_unified_trace_schema(engine):
    tracer = Tracer()
    graph, metrics = ENGINES[engine]("DD", tracer=tracer)
    kinds = set(tracer.counts())
    assert kinds <= EVENT_KINDS
    # Every effect a healthy run performs, and the writers' round trips.
    assert {
        INIT, PRODUCE, RECV, ACK, WORK, SEND, FLUSH, FINISH, ANNOUNCE, "acked"
    } <= kinds
    assert tracer.clock == ("sim" if engine == "simulated" else "wall")
    assert all(e.end >= e.time for e in tracer.events)
    # Every copy announced its end-of-work once.
    announced = [e.copy for e in tracer.events if e.kind == ANNOUNCE]
    assert len(announced) == len(set(announced)) == len(metrics.copies)
    # A receive that got a buffer names its stream; one per consumed buffer.
    received = [e for e in tracer.events if e.kind == RECV and e.detail]
    assert len(received) == sum(c.buffers_in for c in metrics.copies)
    # Queue depths were sampled.
    assert tracer.queue_samples
    # DD acks carry measurable latencies.
    assert len(tracer.ack_latencies()) > 0
    assert all(latency >= 0.0 for latency in tracer.ack_latencies())


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_trace_jsonl_round_trip(engine, tmp_path):
    tracer = Tracer()
    ENGINES[engine]("DD", tracer=tracer)
    path = tmp_path / f"{engine}.jsonl"
    tracer.to_jsonl(str(path))
    loaded = Tracer.from_jsonl(str(path))
    assert loaded.events == tracer.events  # order preserved verbatim
    assert loaded.queue_samples == tracer.queue_samples
    assert loaded.clock == tracer.clock
    timeline = loaded.timeline(width=40)
    for copy in {e.copy for e in tracer.events}:
        assert copy in timeline
    assert loaded.utilisation().keys() == tracer.utilisation().keys()


def top_level(tracer, copy):
    """A copy's effect spans that no other effect span contains (a real
    engine's sends run inside the work or flush that made them)."""
    effects = {INIT, PRODUCE, RECV, ACK, WORK, SEND, FLUSH, FINISH, DISCARD, ANNOUNCE}
    spans = sorted(
        ((e.time, e.end) for e in tracer.for_copy(copy) if e.kind in effects),
        key=lambda span: (span[0], -span[1]),
    )
    out = []
    for start, end in spans:
        if out and out[-1][0] <= start and end <= out[-1][1]:
            continue
        out.append((start, end))
    return out


def finish_times(metrics):
    return {
        f"{c.filter_name}@{c.host}#{c.copy_index}": c.finished_at
        for c in metrics.copies
    }


def test_effect_spans_tile_every_copy_cycle_on_the_simulator():
    """The DES driver records a span per effect and no simulated time
    passes between effects, so each copy's spans cover its whole cycle,
    from run start to ``finished_at``, with no gap."""
    tracer = Tracer()
    _graph, metrics = run_simulated("DD", tracer=tracer)
    for copy, finished_at in finish_times(metrics).items():
        spans = top_level(tracer, copy)
        assert spans[0][0] == pytest.approx(0.0, abs=1e-12), copy
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert s1 == pytest.approx(e0, abs=1e-12), copy
        assert spans[-1][1] == pytest.approx(finished_at, abs=1e-12), copy


def test_process_effect_spans_are_ordered_and_disjoint():
    """Forked copies trace the effects their trampoline performs: one after
    another, never overlapping, all inside the copy's cycle.  (How much of
    the cycle they cover is wall-clock and is not gated here.)"""
    tracer = Tracer()
    _graph, metrics = run_process("DD", tracer=tracer)
    for copy, finished_at in finish_times(metrics).items():
        spans = top_level(tracer, copy)
        assert spans, copy
        for start, end in spans:
            assert start <= end, copy
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert e0 <= s1, copy
        assert spans[-1][1] <= finished_at, copy


# -- utilisation on a stalled producer ----------------------------------------
STALL_COUNT = 24


class StallSource(Filter):
    def flush(self, ctx):
        for i in range(STALL_COUNT):
            ctx.write(DataBuffer(NBYTES, payload=i))


class SlowSink(Filter):
    def handle(self, ctx, buffer):
        time.sleep(0.004)


class StallSourceModel(StageModel):
    source = True

    def units(self, ctx):
        yield 0, 0, False, {}

    def step(self, unit, cost):
        return cost, unit

    def packets(self, unit):
        return [DataBuffer(NBYTES) for _ in range(STALL_COUNT)]


class SlowSinkModel(StageModel):
    def step(self, unit, cost):
        return cost + 0.004, None


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_utilisation_columns_sum_to_the_span(engine):
    """A source outrunning its sink stalls on full DD windows.  A real
    engine sends inside the flush, so its ``blocked`` time lies inside a
    busy span; each copy's busy + io + blocked + idle is still its span."""
    graph = FilterGraph()
    graph.add_filter(
        "src", factory=StallSource, sim_factory=StallSourceModel, is_source=True
    )
    graph.add_filter("sink", factory=SlowSink, sim_factory=SlowSinkModel)
    graph.connect("src", "sink")
    placement = Placement().place("src", ["node0"]).place("sink", ["node1"])
    tracer = Tracer()
    if engine == "simulated":
        cluster = homogeneous_cluster(Environment(), nodes=2)
        SimulatedEngine(cluster, graph, placement, policy="DD", tracer=tracer).run()
    else:
        engine_cls = ThreadedEngine if engine == "threaded" else ProcessEngine
        engine_cls(graph, placement, policy="DD", tracer=tracer).run()
    util = tracer.utilisation()
    assert util["src@node0#0"]["blocked"] > 0.0  # the producer did stall
    for copy, row in util.items():
        total = row["busy"] + row["io"] + row["blocked"] + row["idle"]
        assert total == pytest.approx(row["span"], abs=1e-9), (copy, row)


def test_validate_catches_cooked_books():
    from repro.errors import MetricsError

    graph, metrics = run_threaded()
    metrics.ack_bytes += 1  # cook the ack ledger
    with pytest.raises(MetricsError, match="ack_bytes"):
        metrics.validate(graph)


# -- partial metrics on failed batches ----------------------------------------
class FragileWorker(Filter):
    """Doubles payloads; refuses the unit of work that says so."""

    def init(self, ctx):
        if ctx.uow == "bad":
            raise RuntimeError("boom uow")

    def handle(self, ctx, buffer):
        ctx.write(DataBuffer(NBYTES, payload=buffer.payload * 2))


class ResettingSink(Filter):
    def init(self, ctx):
        self.total = 0

    def handle(self, ctx, buffer):
        self.total += buffer.payload

    def result(self):
        return self.total


def test_partial_metrics_on_failed_batch_parity():
    """One bad cycle must not discard the healthy cycles' metrics.

    Both real engines attach one RunMetrics per unit of work — healthy
    cycles fully merged — plus every collected error to the EngineError,
    and they agree on all of it.
    """
    from repro.errors import EngineError

    uows = ["a", "bad", "c"]
    per_engine = {}
    for name, engine_cls in (
        ("threaded", ThreadedEngine), ("process", ProcessEngine)
    ):
        g = FilterGraph()
        g.add_filter("src", factory=RealSource, is_source=True)
        g.add_filter("work", factory=FragileWorker)
        g.add_filter("sink", factory=ResettingSink)
        g.connect("src", "work")
        g.connect("work", "sink")
        engine = engine_cls(g, shared_placement(), policy="DD")
        with pytest.raises(EngineError) as exc_info:
            engine.run_cycles(uows)
        exc = exc_info.value
        assert len(exc.metrics) == len(uows), name
        assert exc.errors, name
        assert "boom uow" in exc.errors[0], name
        per_engine[name] = exc

    threaded, process = per_engine["threaded"], per_engine["process"]
    # Both work copies refused the bad cycle on both engines.
    assert len(threaded.errors) == len(process.errors) == 2
    for k in (0, 2):  # the healthy cycles merged completely, identically
        t, p = threaded.metrics[k], process.metrics[k]
        assert t.result == p.result == 2 * sum(range(COUNT))
        assert (
            t.stream_totals("src->work")
            == p.stream_totals("src->work")
            == (COUNT, COUNT * NBYTES)
        )
        assert t.makespan > 0.0 and p.makespan > 0.0
    # The failed cycle still reports the sink's (empty) pass identically.
    assert threaded.metrics[1].result == process.metrics[1].result == 0
