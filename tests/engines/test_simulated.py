"""Integration tests for the simulated engine on toy pipelines."""

import pytest

from repro.core import DataBuffer, FilterGraph, Placement
from repro.core.fuse import StageModel
from repro.engines.simulated import SimulatedEngine
from repro.errors import EngineError
from repro.sim import Environment, homogeneous_cluster


class ListSource(StageModel):
    """Emits `count` buffers of `nbytes`, optionally reading from disk."""

    source = True

    def __init__(self, count, nbytes, read_bytes=0, cpu=0.0):
        self.count = count
        self.nbytes = nbytes
        self.read_bytes = read_bytes
        self.cpu = cpu

    def units(self, ctx):
        # Split the work among all copies of the source filter.
        for i in range(self.count):
            if i % ctx.total_copies != ctx.copy_index:
                continue
            yield self.read_bytes, 0, False, {"seq": i}

    def step(self, unit, cost):
        return cost + self.cpu, unit

    def packets(self, unit):
        return [DataBuffer(self.nbytes, tags=dict(unit))]


class PassThrough(StageModel):
    """Charges fixed CPU per buffer and forwards it."""

    def __init__(self, cpu=0.0):
        self.cpu = cpu

    def unit_of(self, buffer):
        return {"nbytes": buffer.nbytes, "tags": buffer.tags}

    def step(self, unit, cost):
        return cost + self.cpu, unit

    def packets(self, unit):
        return [DataBuffer(unit["nbytes"], tags=unit["tags"])]


class CountingSink(StageModel):
    """Counts buffers and bytes; exposes them via result()."""

    def __init__(self):
        self.buffers = 0
        self.bytes = 0

    def unit_of(self, buffer):
        return {"nbytes": buffer.nbytes}

    def step(self, unit, cost):
        self.buffers += 1
        self.bytes += unit["nbytes"]
        return cost, None

    def result(self):
        return {"buffers": self.buffers, "bytes": self.bytes}


class AccumulatingSink(StageModel):
    """Accumulates, then reports at flush (z-buffer-style)."""

    def __init__(self):
        self.total = 0

    def step(self, unit, cost):
        self.total += unit.get("seq", 0)
        return cost, None

    def flush_step(self, cost):
        return cost + 0.001, None

    def result(self):
        return self.total


def two_stage(cluster, policy="RR", copies=None, count=10, nbytes=1000, **engine_kw):
    """src on node0 -> sink with given copy placement."""
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(count, nbytes), is_source=True)
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "sink")
    p = Placement()
    p.place("src", ["node0"])
    p.place("sink", copies or ["node0"])
    return SimulatedEngine(cluster, g, p, policy=policy, **engine_kw)


def test_single_host_pipeline_delivers_everything():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    engine = two_stage(cluster, count=25, nbytes=500)
    metrics = engine.run()
    assert metrics.result == {"buffers": 25, "bytes": 12500}
    assert metrics.stream_totals("src->sink") == (25, 12500)
    assert metrics.makespan > 0


def test_remote_pipeline_pays_network_time():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    local = two_stage(cluster, count=10, nbytes=100_000).run()

    env2 = Environment()
    cluster2 = homogeneous_cluster(env2, nodes=2)
    remote = two_stage(cluster2, copies=["node1"], count=10, nbytes=100_000).run()
    assert remote.result == local.result
    assert remote.makespan > local.makespan


def test_rr_splits_buffers_evenly():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=3)
    engine = two_stage(
        cluster, policy="RR", copies=["node1", "node2"], count=20
    )
    metrics = engine.run()
    per_copy = {
        (c.host): c.buffers_in for c in metrics.copies if c.filter_name == "sink"
    }
    assert per_copy == {"node1": 10, "node2": 10}


def test_wrr_splits_by_copy_count():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=3, cores=4)
    engine = two_stage(
        cluster, policy="WRR", copies=[("node1", 3), ("node2", 1)], count=20
    )
    metrics = engine.run()
    received = {"node1": 0, "node2": 0}
    for c in metrics.copies:
        if c.filter_name == "sink":
            received[c.host] += c.buffers_in
    assert received == {"node1": 15, "node2": 5}


def test_dd_sends_acks():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    engine = two_stage(cluster, policy="DD", copies=["node1"], count=12)
    metrics = engine.run()
    assert metrics.result["buffers"] == 12
    assert metrics.ack_messages == 12


def test_rr_sends_no_acks():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    engine = two_stage(cluster, policy="RR", copies=["node1"], count=12)
    metrics = engine.run()
    assert metrics.ack_messages == 0


def test_dd_shifts_load_away_from_slow_node():
    # Sink copies on two nodes; node1 is loaded with background jobs.
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=3)
    cluster.host("node1").set_background_load(8)
    g = FilterGraph()
    g.add_filter(
        "src", sim_factory=lambda: ListSource(60, 10_000), is_source=True
    )
    g.add_filter("work", sim_factory=lambda: PassThrough(cpu=0.05))
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "work")
    g.connect("work", "sink")
    p = Placement()
    p.place("src", ["node0"])
    p.place("work", ["node1", "node2"])
    p.place("sink", ["node0"])
    metrics = SimulatedEngine(cluster, g, p, policy="DD").run()
    received = {
        c.host: c.buffers_in for c in metrics.copies if c.filter_name == "work"
    }
    assert received["node2"] > received["node1"]
    assert metrics.result["buffers"] == 60


def test_dd_beats_rr_under_load_imbalance():
    def makespan(policy):
        env = Environment()
        cluster = homogeneous_cluster(env, nodes=3)
        cluster.host("node1").set_background_load(8)
        g = FilterGraph()
        g.add_filter(
            "src", sim_factory=lambda: ListSource(60, 10_000), is_source=True
        )
        g.add_filter("work", sim_factory=lambda: PassThrough(cpu=0.05))
        g.add_filter("sink", sim_factory=CountingSink)
        g.connect("src", "work")
        g.connect("work", "sink")
        p = Placement()
        p.place("src", ["node0"])
        p.place("work", ["node1", "node2"])
        p.place("sink", ["node0"])
        return SimulatedEngine(cluster, g, p, policy=policy).run().makespan

    assert makespan("DD") < makespan("RR")


def test_multiple_copies_on_one_host_share_queue():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2, cores=4)
    engine = two_stage(cluster, policy="RR", copies=[("node1", 4)], count=40)
    metrics = engine.run()
    sink_copies = [c for c in metrics.copies if c.filter_name == "sink"]
    assert len(sink_copies) == 4
    assert sum(c.buffers_in for c in sink_copies) == 40


def test_accumulating_sink_flush():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(5, 100), is_source=True)
    g.add_filter("acc", sim_factory=AccumulatingSink)
    g.connect("src", "acc")
    p = Placement().place("src", ["node0"]).place("acc", ["node0"])
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    assert metrics.result == 0 + 1 + 2 + 3 + 4


class SteppedOnce(PassThrough):
    """A relay that counts the part-contract calls the engine makes."""

    def __init__(self, made):
        super().__init__(cpu=0.001)
        self.steps = self.flush_steps = 0
        made.append(self)

    def step(self, unit, cost):
        self.steps += 1
        return super().step(unit, cost)

    def flush_step(self, cost):
        self.flush_steps += 1
        return cost + 0.001, None


def test_each_buffer_and_each_end_of_work_is_stepped_once():
    """The cost the engine charges for an input buffer and the unit it cuts
    into packets come from one ``step`` call; end-of-work is one
    ``flush_step`` per copy per cycle."""
    made = []
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(12, 100), is_source=True)
    g.add_filter("mid", sim_factory=lambda: SteppedOnce(made))
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["node1"])
    p.place("mid", [("node0", 1), ("node1", 2)])
    runs = SimulatedEngine(cluster, g, p, policy="DD").run_many(2)
    assert len(made) == 2 * 3
    for metrics, models in zip(runs, (made[:3], made[3:])):
        assert metrics.result == {"buffers": 12, "bytes": 1200}
        assert [m.flush_steps for m in models] == [1, 1, 1]
        mid_in = [c.buffers_in for c in metrics.copies if c.filter_name == "mid"]
        assert sorted(m.steps for m in models) == sorted(mid_in)
        assert sum(mid_in) == 12


def test_three_stage_pipeline_with_fanout_copies():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=4)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(30, 5000), is_source=True)
    g.add_filter("mid", sim_factory=lambda: PassThrough(cpu=0.01))
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "mid")
    g.connect("mid", "sink")
    p = Placement()
    p.place("src", ["node0"])
    p.spread("mid", ["node1", "node2", "node3"])
    p.place("sink", ["node0"])
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    assert metrics.result["buffers"] == 30
    mid_in = [c.buffers_in for c in metrics.copies if c.filter_name == "mid"]
    assert sorted(mid_in) == [10, 10, 10]


def test_source_copies_partition_work():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(20, 100), is_source=True)
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "sink")
    p = Placement()
    p.place("src", [("node0", 1), ("node1", 1)])
    p.place("sink", ["node0"])
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    assert metrics.result["buffers"] == 20


def test_run_many_consecutive_uows():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    engine = two_stage(cluster, count=10)
    runs = engine.run_many(3)
    assert len(runs) == 3
    assert all(m.result["buffers"] == 10 for m in runs)
    # Deterministic identical UOWs -> identical makespans.
    assert runs[0].makespan == pytest.approx(runs[1].makespan)


def test_missing_sim_factory_rejected():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    g = FilterGraph()
    g.add_filter("src", is_source=True)  # no sim_factory
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["node0"])
    with pytest.raises(EngineError, match="sim_factory"):
        SimulatedEngine(cluster, g, p)


def test_bad_queue_capacity_rejected():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    with pytest.raises(EngineError):
        two_stage(cluster, queue_capacity=0)


def test_source_disk_reads_charged():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1, disks=[(1e6, 0.0)])
    g = FilterGraph()
    g.add_filter(
        "src",
        sim_factory=lambda: ListSource(10, 100, read_bytes=1_000_000),
        is_source=True,
    )
    g.add_filter("sink", sim_factory=CountingSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["node0"]).place("sink", ["node0"])
    metrics = SimulatedEngine(cluster, g, p, policy="RR").run()
    src = next(c for c in metrics.copies if c.filter_name == "src")
    assert src.io_time == pytest.approx(10.0)  # 10 reads x 1 MB at 1 MB/s
    assert metrics.makespan >= 10.0


def test_deterministic_runs():
    def once():
        env = Environment()
        cluster = homogeneous_cluster(env, nodes=3)
        engine = two_stage(cluster, policy="DD", copies=["node1", "node2"], count=30)
        return engine.run().makespan

    assert once() == once()


def test_zbuffer_copies_ship_full_buffers_even_when_idle():
    """Paper fidelity: a z-buffer raster copy ships its WHOLE buffer at
    end-of-work even if it rasterised nothing ("pixel information for
    inactive pixel locations is also transmitted")."""
    from repro.data import HostDisks, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    profile = DatasetProfile.synthetic(
        "idle", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=10, seed=0,
    )
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=4, cores=2)
    storage = StorageMap.balanced(profile.files, [HostDisks("node0", 2)])
    app = IsosurfaceApp(profile, storage, width=128, height=128,
                        algorithm="zbuffer")
    graph = app.graph("RE-Ra-M")
    placement = app.placement(
        "RE-Ra-M", compute_hosts=["node1", "node2", "node3"],
        copies_per_host=2,
    )
    metrics = SimulatedEngine(cluster, graph, placement, policy="RR").run()
    # Six raster copies -> six full z-buffers regardless of triangle count.
    _, nbytes = metrics.stream_totals("Ra->M")
    assert nbytes == 6 * 128 * 128 * 8


def test_figure1_copy_set_routing():
    """Paper Figure 1: a producer copy's buffer goes to exactly one of the
    consumer's copy sets (one per host), never anywhere else."""
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=4)
    engine = two_stage(
        cluster, policy="RR", copies=[("node1", 2), ("node2", 1)], count=30
    )
    metrics = engine.run()
    stats = metrics.streams["src->sink"]
    dst_hosts = set(stats.by_dst_host)
    assert dst_hosts == {"node1", "node2"}  # only hosts with copy sets
    assert sum(stats.by_dst_host.values()) == 30


def test_sim_model_exception_propagates():
    """A model that raises fails its copy as a real filter would: the run
    raises EngineError naming the copy and cycle, with the traceback, once
    the crashed copy has drained and announced — and the surviving copies'
    metrics ride on the error."""

    class BadModel(StageModel):
        def step(self, unit, cost):
            raise RuntimeError("model blew up")

    env = Environment()
    cluster = homogeneous_cluster(env, nodes=1)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: ListSource(3, 10), is_source=True)
    g.add_filter("bad", sim_factory=BadModel)
    g.connect("src", "bad")
    p = Placement().place("src", ["node0"]).place("bad", ["node0"])
    with pytest.raises(EngineError, match="bad@node0#0 cycle 0") as info:
        SimulatedEngine(cluster, g, p, policy="RR").run()
    (error,) = info.value.errors
    assert "Traceback" in error and "RuntimeError: model blew up" in error
    (metrics,) = info.value.metrics
    src, bad = metrics.copies
    assert (src.buffers_out, src.finished_at > 0.0) == (3, True)
    # The first buffer was worked on and raised; the crash drain discarded
    # the other two instead of leaving the source blocked on them.
    assert (bad.buffers_in, bad.finished_at > 0.0) == (1, True)
