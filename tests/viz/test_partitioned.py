"""Tests for the image-partitioned (merge-free) extension."""

import os

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.tiles import TileMap
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
    owner_hosts,
)
from repro.viz.profile import DatasetProfile

def small_profile():
    return DatasetProfile.synthetic(
        "p", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=100, seed=0,
    )


def strip_tiles(width, regions):
    profile = small_profile()
    storage = StorageMap.balanced(profile.files, [HostDisks("h")])
    graph = build_partitioned_graph(profile, storage, 0, width, 64, regions)
    return graph.filters["Ra"].tile_map.tiles


def test_x_strips_cover_width_exactly():
    strips = strip_tiles(100, 3)
    assert strips[0].x0 == 0
    assert strips[-1].x1 == 100
    assert all(a.x1 == b.x0 for a, b in zip(strips, strips[1:]))
    assert [t.owner for t in strips] == [0, 1, 2]
    assert all((t.y0, t.y1) == (0, 64) for t in strips)


def test_x_strips_validation():
    with pytest.raises(ConfigurationError):
        strip_tiles(100, 0)
    with pytest.raises(ConfigurationError):
        strip_tiles(2, 3)


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


@pytest.mark.parametrize("engine_cls", [ThreadedEngine, ProcessEngine],
                         ids=lambda cls: cls.__name__)
def test_partitioned_matches_merge_based_image(scenario, engine_cls):
    """Content routing (``TileRouted`` through ``Writer.send``) delivers
    every strip its triangles, in threads and across processes — with no
    policy argument: ``Ra``'s tile map makes ``RE->Ra`` tile-routed.

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
    tile_map = graph.filters["Ra"].tile_map
    placement = (
        Placement()
        .place("RE", ["h0"])
        .place("Ra", owner_hosts(3, ["h0"], "h0"))
    )
    metrics = engine_cls(graph, placement).run()
    image = assemble_strips(metrics.result, tile_map)
    np.testing.assert_array_equal(image, merge_based(None))
    assert sum(r.buffers_merged for r in metrics.result) == (
        metrics.stream_totals("RE->Ra")[0]
    )

    (cycle,) = engine_cls(graph, placement).run_cycles([{"camera": turned}])
    reference = merge_based(turned)
    assert not np.array_equal(reference, image)
    np.testing.assert_array_equal(
        assemble_strips(cycle.result, tile_map), reference
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
        graph.filters["Ra"].factory().result()


def test_assemble_strips_requires_full_cover():
    tile_map = TileMap.grid(10, 4, 2, 1)
    frame = RenderResult(np.zeros((4, 10, 3), dtype=np.uint8), 0, 0)
    with pytest.raises(ConfigurationError):
        assemble_strips([frame], tile_map)


@pytest.mark.parametrize("triangles", [0, 1, 6, 7, 8, 9, 1000])
def test_strip_route_model_conserves_triangles(triangles):
    # Fewer triangles than strips: the shares still sum to the total, and
    # a strip whose share is zero gets no buffer.
    tile_map = TileMap.grid(64, 64, 8, 1)
    model = StripRouteModel(BufferSizes(), tile_map, [1.0] * 8)
    bufs = model.packets({"triangles": triangles})
    assert sum(b.tags["triangles"] for b in bufs) == triangles
    assert sum(b.nbytes for b in bufs) == triangles * TRIANGLE_BYTES
    assert all(b.tags["triangles"] > 0 for b in bufs)
    for b in bufs:
        assert b.tags["tile_owner"] == tile_map.tiles[b.tags["tile"]].owner


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
    placement = (
        Placement()
        .place("RE", [names[0]])
        .place("Ra", [names[(region + 1) % nodes] for region in range(regions)])
    )
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
