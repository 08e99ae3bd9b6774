"""The ``fuse`` combinators themselves, not only the stages built with them.

The four shipped configurations exercise ``fuse(R, E)``, ``fuse(E, Ra)``
and ``fuse(R, E, Ra)``; these tests pin the contract those instances rely
on — lifecycle order, hand-off timing, cost additivity, conservation and
per-unit-of-work overrides — on parts written for the purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataBuffer, Filter, FilterContext, FilterGraph, Placement
from repro.core.fuse import FusedFilter, FusedModel, StageModel, fuse, fuse_models
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import SimulatedEngine, ThreadedEngine
from repro.errors import ConfigurationError
from repro.sim import Environment, homogeneous_cluster
from repro.viz import CONFIGURATIONS, IsosurfaceApp
from repro.viz.active_pixel import WPA_ENTRY_BYTES
from repro.viz.camera import Camera
from repro.viz.models import (
    BufferSizes,
    CostParams,
    ExtractModel,
    RasterAPModel,
    RasterZBModel,
    raster_model,
)
from repro.viz.profile import DatasetProfile


# -- real side: lifecycle -----------------------------------------------------
class Recorder(Filter):
    """Logs every callback; optionally holds its input until ``flush``."""

    def __init__(self, name, log, buffered=False):
        self.name = name
        self.log = log
        self.buffered = buffered

    def init(self, ctx):
        self.log.append((self.name, "init"))
        self.held = []

    def handle(self, ctx, buffer):
        self.log.append((self.name, "handle", buffer.payload))
        if self.buffered:
            self.held.append(buffer)
        else:
            ctx.write(DataBuffer(buffer.nbytes, f"{buffer.payload}>{self.name}"))

    def flush(self, ctx):
        self.log.append((self.name, "flush"))
        for buffer in self.held:
            ctx.write(DataBuffer(buffer.nbytes, f"{buffer.payload}>{self.name}"))

    def finalize(self, ctx):
        self.log.append((self.name, "finalize"))


def outer_context(written, uow=None):
    return FilterContext(
        filter_name="abc", host="h0", copy_index=1, copies_on_host=2,
        total_copies=4, output_streams=["out"],
        write_fn=lambda stream, buffer: written.append((stream, buffer.payload)),
        uow=uow,
    )


def run_cycle(fused, ctx, payloads):
    fused.init(ctx)
    for payload in payloads:
        fused.handle(ctx, DataBuffer(8, payload))
    fused.flush(ctx)
    fused.finalize(ctx)


def test_fuse_of_one_part_is_that_part():
    part = Recorder("a", [])
    assert fuse(part) is part
    model = ExtractModel(CostParams(), BufferSizes())
    assert fuse_models(model) is model


def test_fuse_needs_a_part():
    with pytest.raises(ConfigurationError):
        fuse()
    with pytest.raises(ConfigurationError):
        fuse_models()


def test_lifecycle_is_forwarded_in_part_order():
    log, written = [], []
    fused = fuse(Recorder("a", log), Recorder("b", log), Recorder("c", log))
    assert isinstance(fused, FusedFilter)
    run_cycle(fused, outer_context(written), ["x", "y"])
    assert log == [
        ("a", "init"), ("b", "init"), ("c", "init"),
        ("a", "handle", "x"), ("b", "handle", "x>a"), ("c", "handle", "x>a>b"),
        ("a", "handle", "y"), ("b", "handle", "y>a"), ("c", "handle", "y>a>b"),
        ("a", "flush"), ("b", "flush"), ("c", "flush"),
        ("a", "finalize"), ("b", "finalize"), ("c", "finalize"),
    ]
    # Only the last part's writes cross the stage boundary.
    assert written == [("out", "x>a>b>c"), ("out", "y>a>b>c")]


def test_flush_output_reaches_the_next_part_before_it_flushes():
    log, written = [], []
    fused = fuse(Recorder("a", log, buffered=True), Recorder("b", log))
    run_cycle(fused, outer_context(written), ["x", "y"])
    assert log.index(("b", "handle", "y>a")) < log.index(("b", "flush"))
    assert log.index(("a", "flush")) < log.index(("b", "handle", "x>a"))
    assert written == [("out", "x>a>b"), ("out", "y>a>b")]


def test_inner_parts_see_the_copy_identity_and_uow():
    seen = []

    class Probe(Filter):
        def handle(self, ctx, buffer):
            seen.append(
                (ctx.filter_name, ctx.host, ctx.copy_index, ctx.copies_on_host,
                 ctx.total_copies, ctx.uow)
            )
            ctx.write(buffer)

    written = []
    fused = fuse(Probe(), Probe())
    run_cycle(fused, outer_context(written, uow={"k": 1}), ["x"])
    assert seen == [("abc", "h0", 1, 2, 4, {"k": 1})] * 2


def test_inner_part_cannot_name_a_stream():
    class Named(Filter):
        def handle(self, ctx, buffer):
            ctx.write(buffer, stream="side")

    fused = fuse(Named(), Recorder("b", []))
    ctx = outer_context([])
    fused.init(ctx)
    with pytest.raises(ValueError, match="no output stream 'side'"):
        fused.handle(ctx, DataBuffer(8, "x"))


def test_a_new_cycle_rebinds_the_chain_to_its_context():
    first, second = [], []
    fused = fuse(Recorder("a", []), Recorder("b", []))
    run_cycle(fused, outer_context(first), ["x"])
    run_cycle(fused, outer_context(second), ["y"])
    assert first == [("out", "x>a>b")]
    assert second == [("out", "y>a>b")]


# -- simulated side: additivity and conservation ------------------------------
COSTS = CostParams()
BUFFERS = BufferSizes(triangles=4096, wpa=2048)

tags = st.fixed_dictionaries(
    {
        "voxels": st.integers(min_value=0, max_value=200_000),
        "triangles": st.integers(min_value=0, max_value=20_000),
    }
)


@settings(max_examples=60, deadline=None)
@given(tags=tags, algorithm=st.sampled_from(["zbuffer", "active"]))
def test_fused_cost_is_the_sum_of_its_parts(tags, algorithm):
    extract = ExtractModel(COSTS, BUFFERS)
    raster = raster_model(algorithm, COSTS, BUFFERS, 512, 512)
    fused = fuse_models(
        ExtractModel(COSTS, BUFFERS),
        raster_model(algorithm, COSTS, BUFFERS, 512, 512),
    )
    assert isinstance(fused, FusedModel)
    buffer = DataBuffer(1000, tags=tags)
    # What E hands Ra inside the fused stage: the unit, not its packets.
    extract_cost, unit = extract.step(extract.unit_of(buffer), 0.0)
    raster_cost, raster_unit = raster.step(unit, 0.0)
    fused_cost, emitted = fused.step(fused.unit_of(buffer), 0.0)
    assert fused_cost == pytest.approx(
        extract_cost + raster_cost, rel=1e-12, abs=0
    )
    # Bit for bit: Ra's terms added one by one onto E's running cost.
    assert fused_cost == raster.step(unit, extract_cost)[0]
    assert emitted == raster_unit
    if emitted is not None:
        assert [(b.nbytes, b.tags) for b in fused.packets(emitted)] == [
            (b.nbytes, b.tags) for b in raster.packets(raster_unit)
        ]
    assert fused.flush_step(0.0)[0] == (
        extract.flush_step(0.0)[0] + raster.flush_step(0.0)[0]
    )


@settings(max_examples=60, deadline=None)
@given(tags=tags)
def test_fused_active_pixel_conserves_entries_and_bytes(tags):
    raster = RasterAPModel(COSTS, BUFFERS, 512, 512)
    fused = fuse_models(
        ExtractModel(COSTS, BUFFERS), RasterAPModel(COSTS, BUFFERS, 512, 512)
    )
    outs = fused.packets(fused.step(tags, 0.0)[1])
    entries = raster.ap_entries(tags["triangles"])
    assert sum(out.tags["entries"] for out in outs) == entries
    assert sum(out.nbytes for out in outs) == entries * WPA_ENTRY_BYTES
    assert all(out.nbytes <= BUFFERS.wpa for out in outs)
    assert fused.flush_step(0.0)[1] is None


def test_fused_zbuffer_emits_only_at_end_of_work():
    fused = fuse_models(
        ExtractModel(COSTS, BUFFERS), RasterZBModel(COSTS, BUFFERS, 64, 64)
    )
    assert fused.step({"voxels": 9, "triangles": 5}, 0.0)[1] is None
    outs = fused.packets(fused.flush_step(0.0)[1])
    assert sum(out.nbytes for out in outs) == 64 * 64 * 8
    assert sum(out.tags["entries"] for out in outs) == 64 * 64


def test_fused_memory_counts_external_buffers_only():
    extract = ExtractModel(COSTS, BUFFERS)
    raster = RasterZBModel(COSTS, BUFFERS, 64, 64)
    fused = fuse_models(extract, raster)
    # E's output and Ra's input triangle buffers are internal: not counted.
    assert fused.memory_bytes() == raster.accumulator_bytes() + BUFFERS.read
    assert extract.memory_bytes() == BUFFERS.read + BUFFERS.triangles
    assert raster.memory_bytes() == (
        raster.accumulator_bytes() + BUFFERS.triangles
    )


class TriangleSource(StageModel):
    """One unit of 50 triangles, in one buffer."""

    source = True

    def units(self, ctx):
        yield 0, 0, False, {"triangles": 50}

    def step(self, unit, cost):
        return cost, unit

    def packets(self, unit):
        return [DataBuffer(10, tags=dict(unit))]


def test_a_stage_placed_as_a_sink_emits_nothing():
    raster = RasterAPModel(COSTS, BUFFERS, 64, 64)
    assert raster.packets(raster.step({"triangles": 50}, 0.0)[1]) != []
    # Placed as a sink, the engine cuts nothing from the unit Ra emits.
    graph = FilterGraph()
    graph.add_filter("src", sim_factory=TriangleSource, is_source=True)
    graph.add_filter("ra", sim_factory=lambda: RasterAPModel(COSTS, BUFFERS, 64, 64))
    graph.connect("src", "ra")
    placement = Placement().place("src", ["node0"]).place("ra", ["node0"])
    cluster = homogeneous_cluster(Environment(), nodes=1)
    metrics = SimulatedEngine(cluster, graph, placement, policy="RR").run()
    assert sorted(metrics.streams) == ["src->ra"]
    assert metrics.result == {"triangles": 50}


# -- fused and unfused pipelines honour the same uow overrides ----------------
@pytest.fixture(scope="module")
def scene():
    dataset = ParSSimDataset((17, 17, 17), timesteps=2, species=1, seed=21)
    profile = DatasetProfile.measured("fu", dataset, 8, 4, isovalue=0.35)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    return dataset, profile, storage


@pytest.mark.parametrize("algorithm", ["zbuffer", "active"])
def test_uow_overrides_are_honoured_identically(scene, algorithm):
    dataset, profile, storage = scene
    app = IsosurfaceApp(
        profile, storage, width=40, height=40, algorithm=algorithm,
        dataset=dataset, isovalue=0.35,
    )
    turned = Camera.fit_grid(profile.grid_shape, 40, 40, direction=(0, 1, 0.4))
    uows = [
        None,
        {"isovalue": 0.5},
        {"timestep": 1},
        {"camera": turned},
        {"isovalue": 0.45, "timestep": 1, "camera": turned},
    ]
    frames = {
        configuration: [
            metrics.result.image
            for metrics in ThreadedEngine(
                app.graph(configuration), app.placement(configuration)
            ).run_cycles(uows)
        ]
        for configuration in CONFIGURATIONS
    }
    reference = frames["R-E-Ra-M"]
    # Every override changes the picture ...
    for other in reference[1:]:
        assert not np.array_equal(reference[0], other)
    # ... and changes it the same way however the stages are grouped.
    for configuration in CONFIGURATIONS[1:]:
        for uow, want, got in zip(uows, reference, frames[configuration]):
            np.testing.assert_array_equal(
                got, want, err_msg=f"{configuration} {uow}"
            )
