"""Tests for the image-partitioned (merge-free) extension."""

import os

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import ProcessEngine, SimulatedEngine, ThreadedEngine
from repro.errors import ConfigurationError
from repro.sim import Environment, homogeneous_cluster
from repro.viz.app import IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.filters import TRIANGLE_BYTES, RenderResult
from repro.viz.models import BufferSizes
from repro.viz.partitioned import (
    StripRouteModel,
    assemble_strips,
    build_partitioned_graph,
    strip_bounds,
)
from repro.viz.profile import DatasetProfile

def small_profile():
    return DatasetProfile.synthetic(
        "p", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=100, seed=0,
    )


def test_x_strips_cover_width_exactly():
    bounds = strip_bounds(100, 3)
    assert bounds == [0, 33, 66, 100]
    for width in (1, 7, 64, 100):
        for regions in range(1, width + 1):
            bounds = strip_bounds(width, regions)
            assert bounds[0] == 0 and bounds[-1] == width
            assert all(a < b for a, b in zip(bounds, bounds[1:]))  # none empty


def test_x_strips_validation():
    for width, regions in ((100, 0), (2, 3), (0, 1), (10, -1)):
        with pytest.raises(ConfigurationError, match="regions"):
            strip_bounds(width, regions)
    # The graph builder refuses the same counts.
    profile = small_profile()
    storage = StorageMap.balanced(profile.files, [HostDisks("h")])
    with pytest.raises(ConfigurationError, match="regions"):
        build_partitioned_graph(profile, storage, 0, 2, 64, regions=3)


@pytest.fixture(scope="module")
def scenario():
    dataset = ParSSimDataset((13, 13, 13), timesteps=1, species=1, seed=9)
    iso = 0.35
    profile = DatasetProfile.measured("p", dataset, nchunks=8, nfiles=4, isovalue=iso)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    return dataset, profile, storage, iso


def _shm_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


def owners_on(host, regions):
    """``RE`` and every strip owner ``Ra<o>`` on one host."""
    placement = Placement().place("RE", [host])
    for owner in range(regions):
        placement.place(f"Ra{owner}", [host])
    return placement


@pytest.mark.parametrize("engine_cls", [ThreadedEngine, ProcessEngine],
                         ids=lambda cls: cls.__name__)
def test_partitioned_matches_merge_based_image(scenario, engine_cls):
    """Each strip owner is its own sink fed by its own stream, so every
    strip gets its triangles in threads and across processes under any
    session policy (RR and DD here), with every owner on one host.

    A unit of work that turns the camera turns the route part with the
    rasters: a triangle goes to the strips it covers in the view it is
    drawn in, not in the view the graph was built with."""
    dataset, profile, storage, iso = scenario
    before = _shm_segments()
    width = height = 40
    turned = Camera.orbit(profile.grid_shape, 75.0, 40.0, width, height)

    def merge_based(view):
        app = IsosurfaceApp(
            profile, storage, width=width, height=height, algorithm="zbuffer",
            dataset=dataset, isovalue=iso, view=view,
        )
        return (
            ThreadedEngine(app.graph("RE-Ra-M"), app.placement("RE-Ra-M"))
            .run()
            .result.image
        )

    # Partitioned: 3 strip owners, no merge filter.
    graph = build_partitioned_graph(
        profile, storage, 0, width, height, regions=3,
        dataset=dataset, isovalue=iso,
    )
    bounds = strip_bounds(width, 3)
    placement = owners_on("h0", 3)
    reference, turned_reference = merge_based(None), merge_based(turned)
    assert not np.array_equal(reference, turned_reference)
    for policy in ("RR", "DD"):
        metrics = engine_cls(graph, placement, policy=policy).run()
        image = assemble_strips(metrics.result, bounds)
        np.testing.assert_array_equal(image, reference)
        for owner, result in enumerate(metrics.result):
            assert result.buffers_merged == (
                metrics.stream_totals(f"RE->Ra{owner}")[0]
            )

        (cycle,) = engine_cls(graph, placement, policy=policy).run_cycles(
            [{"camera": turned}]
        )
        np.testing.assert_array_equal(
            assemble_strips(cycle.result, bounds), turned_reference
        )
    assert _shm_segments() <= before


def test_strip_raster_result_before_run_raises():
    from repro.errors import EngineError

    profile = small_profile()
    storage = StorageMap.balanced(profile.files, [HostDisks("h")])
    graph = build_partitioned_graph(
        profile, storage, 0, 16, 16, regions=2, dataset=object()
    )
    with pytest.raises(EngineError, match="run the pipeline first"):
        graph.filters["Ra0"].factory().result()


def test_assemble_strips_requires_full_cover():
    # One frame per owner, in owner order: a short or long list is refused.
    frame = RenderResult(np.zeros((4, 10, 3), dtype=np.uint8), 0, 0)
    bounds = strip_bounds(10, 2)
    for results in ([], [frame], [frame] * 3):
        with pytest.raises(ConfigurationError, match="strip results for 2 owners"):
            assemble_strips(results, bounds)


@pytest.mark.parametrize("triangles", [0, 1, 6, 7, 8, 9, 1000])
def test_strip_route_model_conserves_triangles(triangles):
    # Fewer triangles than strips: the shares still sum to the total, and
    # a strip whose share is zero gets no buffer.
    streams = [f"RE->Ra{owner}" for owner in range(8)]
    model = StripRouteModel(BufferSizes(), streams, [1.0] * 8)
    bufs = model.packets({"triangles": triangles})
    assert sum(b.tags["triangles"] for b in bufs) == triangles
    assert sum(b.nbytes for b in bufs) == triangles * TRIANGLE_BYTES
    assert all(b.tags["triangles"] > 0 for b in bufs)
    assert {b.tags["stream"] for b in bufs} <= set(streams)


def sim_partitioned(regions, weights=None, nodes=4, tris=40_000):
    profile = DatasetProfile.synthetic(
        "p", (33, 33, 33), nchunks=64, nfiles=16, timesteps=1,
        total_triangles=tris, seed=4,
    )
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=nodes)
    names = [f"node{i}" for i in range(nodes)]
    storage = StorageMap.balanced(profile.files, [HostDisks(names[0], 2)])
    graph = build_partitioned_graph(
        profile, storage, timestep=0, width=512, height=512,
        regions=regions, region_weights=weights,
    )
    placement = Placement().place("RE", [names[0]])
    for region in range(regions):
        placement.place(f"Ra{region}", [names[(region + 1) % nodes]])
    return SimulatedEngine(cluster, graph, placement, policy="RR").run()


def test_sim_partitioned_distributes_triangles():
    metrics = sim_partitioned(regions=3)
    results = metrics.result
    assert len(results) == 3
    total = sum(r["triangles"] for r in results)
    # Even split within rounding, and nothing lost to it.
    assert total == 40_000
    shares = sorted(r["triangles"] for r in results)
    assert shares[-1] - shares[0] < 0.1 * total


def test_sim_partitioned_skewed_weights_create_imbalance():
    metrics = sim_partitioned(regions=2, weights=[3.0, 1.0])
    results = sorted(r["triangles"] for r in metrics.result)
    assert results[1] > 2.0 * results[0]


def test_sim_partitioned_imbalance_slows_run():
    balanced = sim_partitioned(regions=2, weights=[1.0, 1.0]).makespan
    skewed = sim_partitioned(regions=2, weights=[5.0, 1.0]).makespan
    assert skewed > balanced


def test_build_partitioned_graph_validation():
    profile = small_profile()
    storage = StorageMap.balanced(profile.files, [HostDisks("h")])
    with pytest.raises(ConfigurationError):
        build_partitioned_graph(
            profile, storage, 0, 64, 64, regions=2, region_weights=[1.0]
        )
    with pytest.raises(ConfigurationError):
        build_partitioned_graph(
            profile, storage, 0, 64, 64, regions=2, region_weights=[0.0, 0.0]
        )
    with pytest.raises(ConfigurationError):
        build_partitioned_graph(profile, storage, 0, 64, 64, regions=0)
