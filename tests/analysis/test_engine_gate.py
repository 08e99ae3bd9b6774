"""Engines run the static verifier before executing anything.

ERROR diagnostics abort construction with the historical exception types;
WARNING diagnostics surface as ``analysis`` trace events at run start.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement, SimFilter, SimSource, SourceItem
from repro.core.tracing import Tracer
from repro.engines.pool import WarmPool
from repro.engines.process import ProcessEngine
from repro.engines.simulated import SimulatedEngine
from repro.engines.threaded import ThreadedEngine
from repro.errors import AnalysisError, GraphError, PlacementError
from repro.sim import Environment, homogeneous_cluster


class OneShotSource(Filter):
    def flush(self, ctx):
        if ctx.copy_index == 0:
            ctx.write(DataBuffer(8, payload=1))


class Forward(Filter):
    def handle(self, ctx, buffer):
        ctx.write(buffer)


class CountSink(Filter):
    def __init__(self):
        self.n = 0

    def handle(self, ctx, buffer):
        self.n += 1

    def result(self):
        return self.n


def thread_graph(**mid_kwargs):
    g = FilterGraph()
    g.add_filter("src", factory=OneShotSource, is_source=True)
    g.add_filter("mid", factory=Forward, **mid_kwargs)
    g.add_filter("sink", factory=CountSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    return g


def full_placement(g, copies=1):
    p = Placement()
    for name in g.filters:
        p.place(name, [("h0", copies if name == "mid" else 1)])
    return p


# -- construction-time refusal ----------------------------------------------


def test_threaded_engine_refuses_orphan_filter():
    g = thread_graph()
    g.add_filter("floating", factory=Forward)
    p = full_placement(g)
    with pytest.raises(GraphError, match="is_source"):
        ThreadedEngine(g, p)


def test_threaded_engine_refuses_missing_placement():
    g = thread_graph()
    p = Placement().place("src", ["h0"]).place("mid", ["h0"])
    with pytest.raises(PlacementError, match="has no placement"):
        ThreadedEngine(g, p)


def test_threaded_engine_refuses_phase_sync_fan_in():
    g = FilterGraph()
    g.add_filter("a", factory=OneShotSource, is_source=True)
    g.add_filter("b", factory=OneShotSource, is_source=True)
    g.add_filter("merge", factory=CountSink, phase_synchronised=True)
    g.connect("a", "merge")
    g.connect("b", "merge")
    p = Placement()
    p.place("a", ["h0"]).place("b", ["h0"]).place("merge", ["h0"])
    with pytest.raises(AnalysisError, match=r"\[Z401\]") as err:
        ThreadedEngine(g, p)
    assert "Z401" in err.value.report.rule_ids()


ENGINES = ["threaded", "process", "simulated", "pool"]


def build_engine(kind, graph, placement, **kwargs):
    """One engine of each kind, hosts ``node0``/``node1``; a pool forks at once."""
    if kind == "simulated":
        cluster = homogeneous_cluster(Environment(), nodes=2)
        return SimulatedEngine(cluster, graph, placement, **kwargs)
    cls = {
        "threaded": ThreadedEngine, "process": ProcessEngine, "pool": WarmPool
    }[kind]
    return cls(graph, placement, **kwargs)


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_refuses_cycle(kind):
    """G102 is why no engine needs the protocol model: a credit cycle
    needs a graph cycle, and every constructor refuses one (a pool before
    it forks a worker)."""
    g = FilterGraph()
    g.add_filter("src", factory=OneShotSource, sim_factory=ListSource,
                 is_source=True)
    g.add_filter("mid", factory=Forward, sim_factory=Counting)
    g.add_filter("sink", factory=CountSink, sim_factory=Counting)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    g.connect("sink", "mid", name="back")
    p = Placement()
    for name in g.filters:
        p.place(name, ["node0"])
    before = multiprocessing.active_children()
    with pytest.raises(GraphError, match="cycle"):
        build_engine(kind, g, p)
    assert multiprocessing.active_children() == before


def test_simulated_engine_refuses_unknown_host():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=ListSource, is_source=True)
    g.add_filter("sink", sim_factory=Counting)
    g.connect("src", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["mars"])
    with pytest.raises(PlacementError, match="unknown host"):
        SimulatedEngine(cluster, g, p)


# -- warnings become trace events --------------------------------------------


def test_threaded_engine_records_analysis_warnings():
    g = thread_graph()
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", 1), ("h1", 1)])  # WRR with all-1 copies: W301
    p.place("sink", ["h0"])
    tracer = Tracer()
    engine = ThreadedEngine(g, p, policy="WRR", tracer=tracer)
    assert "W301" in engine._analysis_report.rule_ids()
    metrics = engine.run()
    assert metrics.result == 1
    analysis = [e for e in tracer.events if e.kind == "analysis"]
    assert analysis, "no analysis trace events recorded"
    assert any(e.detail.startswith("W301:") for e in analysis)


def test_clean_pipeline_records_no_analysis_events():
    g = thread_graph()
    tracer = Tracer()
    ThreadedEngine(g, full_placement(g), tracer=tracer).run()
    assert [e for e in tracer.events if e.kind == "analysis"] == []


class ListSource(SimSource):
    def items(self, ctx):
        for i in range(4):
            if i % ctx.total_copies == ctx.copy_index:
                yield SourceItem(outputs=[DataBuffer(100, tags={"seq": i})])


class Counting(SimFilter):
    def __init__(self):
        self.n = 0

    def cost(self, buffer):
        return 0.0

    def react(self, buffer):
        self.n += 1
        return ()

    def result(self):
        return self.n


def test_simulated_engine_records_analysis_warnings():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=ListSource, is_source=True)
    g.add_filter("sink", sim_factory=Counting)
    g.connect("src", "sink")
    p = Placement()
    p.place("src", ["node0"])
    p.place("sink", [("node0", 2)])  # multi-copy sink: P204 warning
    tracer = Tracer()
    SimulatedEngine(cluster, g, p, tracer=tracer).run()
    analysis = [e for e in tracer.events if e.kind == "analysis"]
    assert any(e.detail.startswith("P204:") for e in analysis)


def test_process_engine_records_analysis_warnings():
    g = thread_graph()
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", 1), ("h1", 1)])
    p.place("sink", ["h0"])
    tracer = Tracer()
    engine = ProcessEngine(g, p, policy="WRR", tracer=tracer)
    metrics = engine.run()
    assert metrics.result == 1
    analysis = [e for e in tracer.events if e.kind == "analysis"]
    assert any(e.detail.startswith("W301:") for e in analysis)


def test_analysis_events_deduplicate_across_reruns():
    """Re-emitting the same report must not duplicate trace findings.

    An engine emits its construction-time report at the start of every
    run; ``analysis`` events are keyed by (rule, subject) per tracer so
    each finding appears exactly once however many runs the tracer
    follows.
    """
    g = thread_graph()
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", 1), ("h1", 1)])  # W301 warning
    p.place("sink", ["h0"])
    tracer = Tracer()
    engine = ThreadedEngine(g, p, policy="WRR", tracer=tracer)
    engine.run()
    engine.run()  # second unit of work, same tracer: would double pre-fix
    analysis = [e for e in tracer.events if e.kind == "analysis"]
    assert analysis
    keyed = [(e.copy, e.detail) for e in analysis]
    assert len(keyed) == len(set(keyed)), keyed


def test_emit_analysis_events_dedup_is_per_tracer():
    from repro.engines.base import emit_analysis_events

    g = thread_graph()
    p = Placement()
    p.place("src", ["h0"])
    p.place("mid", [("h0", 1), ("h1", 1)])
    p.place("sink", ["h0"])
    engine = ThreadedEngine(g, p, policy="WRR")
    report = engine._analysis_report
    first, second = Tracer(), Tracer()
    emit_analysis_events(first, report, 0.0)
    emit_analysis_events(first, report, 1.0)  # same tracer: deduped
    emit_analysis_events(second, report, 0.0)  # fresh tracer: records
    count = lambda t: len([e for e in t.events if e.kind == "analysis"])  # noqa: E731
    assert count(first) == count(second) == len(report.warnings) > 0


@pytest.mark.parametrize("kind", ENGINES)
def test_every_engine_runs_the_shipped_configurations(kind):
    """Every engine constructs and runs the four shipped configurations
    through the gate; the real ones agree on the frame."""
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import CONFIGURATIONS, IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((9, 9, 9), timesteps=1, seed=7)
    profile = DatasetProfile.measured(
        "gate", dataset, nchunks=8, nfiles=2, isovalue=0.3
    )
    hosts = ["node0", "node1"]
    storage = StorageMap.balanced(profile.files, [HostDisks(h) for h in hosts])
    app = IsosurfaceApp(
        profile, storage, width=16, height=16, dataset=dataset, isovalue=0.3
    )
    frames = []
    for config in CONFIGURATIONS:
        graph = app.graph(config)
        engine = build_engine(
            kind, graph, app.placement(config, compute_hosts=hosts)
        )
        try:
            metrics = engine.run()
        finally:
            if kind == "pool":
                engine.close()
        metrics.validate(graph)
        if kind != "simulated":
            frames.append(metrics.result.image)
    for frame in frames[1:]:
        assert np.array_equal(frame, frames[0])


# -- a named output stream reaches only its own consumer --------------------

#: (payload, stream) in write order: stream names, not the policy, route.
NAMED_WRITES = ((1, "src->b"), (0, "src->a"), (2, "src->b"))


class NamedSource(Filter):
    def flush(self, ctx):
        for payload, stream in NAMED_WRITES:
            ctx.write(DataBuffer(8, payload=payload), stream)


class NamedSimSource(SimSource):
    def items(self, ctx):
        for _, stream in NAMED_WRITES:
            yield SourceItem(outputs=[DataBuffer(100, tags={"stream": stream})])


class SeenSink(Filter):
    def init(self, ctx):
        self.seen = []

    def handle(self, ctx, buffer):
        self.seen.append(buffer.payload)

    def result(self):
        return tuple(self.seen)


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_routes_each_buffer_by_its_stream_name(kind):
    """A source writing to named output streams delivers each buffer to
    that stream's consumer only, under a round-robin session; the sinks'
    results come back in graph order (``b`` before ``a``), not in host or
    stream-name order."""
    g = FilterGraph()
    g.add_filter("src", factory=NamedSource, sim_factory=NamedSimSource,
                 is_source=True)
    for name in ("b", "a"):
        g.add_filter(name, factory=SeenSink, sim_factory=Counting)
        g.connect("src", name)
    p = (Placement().place("src", ["node0"]).place("b", ["node1"])
         .place("a", ["node0"]))
    engine = build_engine(kind, g, p, policy="RR")
    try:
        metrics = engine.run()
    finally:
        if kind == "pool":
            engine.close()
    assert metrics.result == ([2, 1] if kind == "simulated" else [(1, 2), (0,)])
    assert engine._analysis_report.rule_ids() == set()
