"""Tests for the threaded engine's work-cycle protocol (run_cycles)."""

import numpy as np
import pytest

from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import ThreadedEngine
from repro.errors import EngineError
from repro.viz import Camera, IsosurfaceApp
from repro.viz.profile import DatasetProfile


class CycleSource(Filter):
    """Emits its cycle's UOW value; counts init/finalize calls."""

    def __init__(self):
        self.inits = 0
        self.finalizes = 0

    def init(self, ctx):
        self.inits += 1

    def flush(self, ctx):
        for i in range(5):
            ctx.write(DataBuffer(8, payload=(ctx.uow["base"], i)))

    def finalize(self, ctx):
        self.finalizes += 1


class CycleSink(Filter):
    def init(self, ctx):
        self.got = []

    def handle(self, ctx, buffer):
        self.got.append(buffer.payload)

    def result(self):
        return sorted(self.got)


def simple_engine():
    g = FilterGraph()
    g.add_filter("src", factory=CycleSource, is_source=True)
    g.add_filter("sink", factory=CycleSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    return ThreadedEngine(g, p, policy="RR")


def test_cycles_deliver_per_uow_results():
    runs = simple_engine().run_cycles([{"base": 10}, {"base": 20}, {"base": 30}])
    assert len(runs) == 3
    for metrics, base in zip(runs, (10, 20, 30)):
        assert metrics.result == [(base, i) for i in range(5)]
        assert metrics.makespan > 0


def test_instances_persist_across_cycles():
    instances = []

    class Probe(CycleSource):
        def __init__(self):
            super().__init__()
            instances.append(self)

    g = FilterGraph()
    g.add_filter("src", factory=Probe, is_source=True)
    g.add_filter("sink", factory=CycleSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    ThreadedEngine(g, p).run_cycles([{"base": 1}, {"base": 2}])
    assert len(instances) == 1  # one instance, reused
    assert instances[0].inits == 2
    assert instances[0].finalizes == 2


def test_empty_uows_rejected():
    with pytest.raises(EngineError):
        simple_engine().run_cycles([])


@pytest.fixture(scope="module")
def scenario():
    dataset = ParSSimDataset((17, 17, 17), timesteps=3, species=1, seed=21)
    iso = 0.35
    profile = DatasetProfile.measured("wc", dataset, 8, 4, isovalue=iso)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    return dataset, profile, storage, iso


def single_run(scenario, timestep, camera=None):
    dataset, profile, storage, iso = scenario
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm="active",
        dataset=dataset, isovalue=iso, timestep=timestep, view=camera,
    )
    g = app.graph("RE-Ra-M")
    p = app.placement("RE-Ra-M")
    return ThreadedEngine(g, p).run().result.image


def test_timestep_uows_match_independent_runs(scenario):
    dataset, profile, storage, iso = scenario
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm="active",
        dataset=dataset, isovalue=iso,
    )
    g = app.graph("RE-Ra-M")
    p = app.placement("RE-Ra-M")
    runs = ThreadedEngine(g, p).run_cycles(
        [{"timestep": 0}, {"timestep": 1}, {"timestep": 2}]
    )
    for t, metrics in enumerate(runs):
        np.testing.assert_array_equal(
            metrics.result.image, single_run(scenario, t), err_msg=f"t={t}"
        )


def test_camera_uows_render_different_views(scenario):
    dataset, profile, storage, iso = scenario
    cam_a = Camera.fit_grid(profile.grid_shape, 48, 48, direction=(1, 0, 0.4))
    cam_b = Camera.fit_grid(profile.grid_shape, 48, 48, direction=(0, 1, 0.4))
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm="zbuffer",
        dataset=dataset, isovalue=iso,
    )
    g = app.graph("RE-Ra-M")
    p = app.placement("RE-Ra-M")
    runs = ThreadedEngine(g, p).run_cycles(
        [{"camera": cam_a}, {"camera": cam_b}]
    )
    img_a, img_b = runs[0].result.image, runs[1].result.image
    assert not np.array_equal(img_a, img_b)
    # Each matches the equivalent single-view run.
    np.testing.assert_array_equal(img_a, single_run(scenario, 0, camera=cam_a))


@pytest.mark.parametrize("algorithm", ["active", "zbuffer"])
def test_camera_uow_of_another_size_is_refused(scenario, algorithm):
    """The raster sized its buffer from the constructor's camera and
    projected with the unit of work's: a 96x96 camera on a 64x64 pipeline
    used to render a 64x64 frame of the wrong pixels, silently."""
    dataset, profile, storage, iso = scenario
    app = IsosurfaceApp(
        profile, storage, width=64, height=64, algorithm=algorithm,
        dataset=dataset, isovalue=iso,
    )
    engine = ThreadedEngine(app.graph("R-E-Ra-M"), app.placement("R-E-Ra-M"))
    matching = Camera.orbit(profile.grid_shape, width=64, height=64)
    assert engine.run_cycles([{"camera": matching}])[0].result.active_pixels > 0
    for size in (96, 32):
        camera = Camera.orbit(profile.grid_shape, width=size, height=size)
        with pytest.raises(EngineError, match=f"{size}x{size}.*64x64"):
            engine.run_cycles([{"camera": camera}])


def test_cycle_stream_stats_are_per_cycle(scenario):
    dataset, profile, storage, iso = scenario
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm="active",
        dataset=dataset, isovalue=iso,
    )
    g = app.graph("RE-Ra-M")
    p = app.placement("RE-Ra-M")
    runs = ThreadedEngine(g, p).run_cycles([{"timestep": 0}, {"timestep": 0}])
    a = runs[0].stream_totals("RE->Ra")
    b = runs[1].stream_totals("RE->Ra")
    assert a == b
    assert a[0] > 0


def test_cycle_failure_does_not_deadlock():
    class FlakySource(Filter):
        def __init__(self):
            self.cycle = -1

        def init(self, ctx):
            self.cycle += 1

        def flush(self, ctx):
            if self.cycle == 1:
                raise RuntimeError("cycle 1 exploded")
            ctx.write(DataBuffer(8, payload=self.cycle))

    g = FilterGraph()
    g.add_filter("src", factory=FlakySource, is_source=True)
    g.add_filter("sink", factory=CycleSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    with pytest.raises(EngineError, match="cycle 1 exploded"):
        ThreadedEngine(g, p).run_cycles([{}, {}, {}])


def test_species_uows_render_different_images():
    dataset = ParSSimDataset((17, 17, 17), timesteps=1, species=2, seed=33)
    iso = 0.35
    profile = DatasetProfile.measured("sp", dataset, 8, 4, isovalue=iso)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    app = IsosurfaceApp(
        profile, storage, width=48, height=48, algorithm="zbuffer",
        dataset=dataset, isovalue=iso,
    )
    g = app.graph("RE-Ra-M")
    p = app.placement("RE-Ra-M")
    runs = ThreadedEngine(g, p).run_cycles(
        [{"species": 0}, {"species": 1}]
    )
    assert not np.array_equal(runs[0].result.image, runs[1].result.image)


def test_dying_consumer_does_not_deadlock_producer():
    # The sink dies on its first buffer of cycle 0 while the source still
    # has many buffers to push through a tiny queue; the run must finish
    # (drain-to-stop) and report the error.
    class BigSource(Filter):
        def flush(self, ctx):
            for i in range(50):
                ctx.write(DataBuffer(8, payload=i))

    class DyingSink(Filter):
        def handle(self, ctx, buffer):
            raise RuntimeError("sink died")

    g = FilterGraph()
    g.add_filter("src", factory=BigSource, is_source=True)
    g.add_filter("sink", factory=DyingSink)
    g.connect("src", "sink")
    p = Placement().place("src", ["h0"]).place("sink", ["h0"])
    engine = ThreadedEngine(g, p, queue_capacity=2)
    with pytest.raises(EngineError, match="sink died"):
        engine.run_cycles([{}, {}])
