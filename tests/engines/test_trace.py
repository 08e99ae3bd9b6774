"""Tests for simulated-engine execution tracing."""

import pytest

from repro.core import DataBuffer, FilterGraph, Placement
from repro.core.fuse import StageModel
from repro.core.tracing import Tracer
from repro.engines.simulated import SimulatedEngine
from repro.sim import Environment, homogeneous_cluster


class Src(StageModel):
    source = True

    def units(self, ctx):
        for i in range(5):
            yield 1000, 0, False, {"i": i}

    def step(self, unit, cost):
        return cost + 0.01, unit

    def packets(self, unit):
        return [DataBuffer(100, tags=dict(unit))]


class Snk(StageModel):
    def step(self, unit, cost):
        return cost + 0.02, None


def traced_run():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=Src, is_source=True)
    g.add_filter("snk", sim_factory=Snk)
    g.connect("src", "snk")
    p = Placement().place("src", ["node0"]).place("snk", ["node1"])
    tracer = Tracer()
    SimulatedEngine(cluster, g, p, policy="RR", tracer=tracer).run()
    return tracer


def test_trace_records_all_kinds():
    tracer = traced_run()
    assert tracer.counts() == {
        "init": 2, "finish": 2, "flush": 2, "announce": 2,
        "produce": 5 + 1,  # five units, then the end of the source
        "recv": 5 + 1,  # five buffers, then the closed input
        "work": 5 + 5,  # one CPU charge per unit and per buffer
        "send": 5,
    }
    assert {e.detail for e in tracer.events if e.kind == "send"} == {"src->snk->node1"}
    assert {e.detail for e in tracer.events if e.kind == "recv"} == {"src->snk", ""}


def test_trace_times_monotone_per_copy():
    tracer = traced_run()
    for copy in ("src@node0#0", "snk@node1#0"):
        events = tracer.for_copy(copy)
        assert events, copy
        times = [e.time for e in events]
        assert times == sorted(times)


def test_work_spans_are_the_cpu_charges():
    tracer = traced_run()
    spans = tracer.spans("snk@node1#0", "work")
    assert len(spans) == 5
    for start, end in spans:
        assert end - start == pytest.approx(0.02)


def test_timeline_renders():
    tracer = traced_run()
    text = tracer.timeline(width=32)
    assert "src@node0#0" in text
    assert "#" in text


def test_timeline_empty():
    assert Tracer().timeline() == "(no events)"


def test_limit_drops_excess():
    tracer = Tracer(limit=3)
    for i in range(10):
        tracer.record(float(i), "c", "recv")
    assert len(tracer.events) == 3
    assert tracer.dropped == 7
    with pytest.raises(ValueError):
        Tracer(limit=0)


def test_untraced_run_records_nothing():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    g = FilterGraph()
    g.add_filter("src", sim_factory=Src, is_source=True)
    g.add_filter("snk", sim_factory=Snk)
    g.connect("src", "snk")
    p = Placement().place("src", ["node0"]).place("snk", ["node0"])
    engine = SimulatedEngine(cluster, g, p)
    assert engine.tracer is None
    engine.run()  # no crash without a tracer
