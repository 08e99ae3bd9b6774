"""Tests for the image-partitioned (merge-free) extension."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.tiles import TileMap
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import SimulatedEngine, ThreadedEngine
from repro.errors import ConfigurationError
from repro.sim import Environment, homogeneous_cluster
from repro.viz.app import IsosurfaceApp, owner_hosts
from repro.viz.filters import RenderResult
from repro.viz.partitioned import assemble_strips, build_partitioned_graph
from repro.viz.profile import DatasetProfile

TILE_ROUTED = {"RE->Ra": "TILE"}


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


def test_partitioned_matches_merge_based_image(scenario):
    dataset, profile, storage, iso = scenario
    width = height = 40

    # Reference: the standard merge-based pipeline.
    app = IsosurfaceApp(
        profile, storage, width=width, height=height, algorithm="zbuffer",
        dataset=dataset, isovalue=iso,
    )
    ref = (
        ThreadedEngine(app.graph("RE-Ra-M"), app.placement("RE-Ra-M"))
        .run()
        .result.image
    )

    # Partitioned: 3 strip owners, no merge filter.
    graph = build_partitioned_graph(
        profile, storage, 0, width, height, regions=3,
        dataset=dataset, isovalue=iso,
    )
    placement = (
        Placement()
        .place("RE", ["h0"])
        .place("Ra", owner_hosts(3, ["h0"], "h0"))
    )
    metrics = ThreadedEngine(
        graph, placement, policy_overrides=TILE_ROUTED
    ).run()
    image = assemble_strips(metrics.result, graph.filters["Ra"].tile_map)
    np.testing.assert_array_equal(image, ref)
    assert sum(r.buffers_merged for r in metrics.result) == (
        metrics.stream_totals("RE->Ra")[0]
    )


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
    return SimulatedEngine(
        cluster, graph, placement, policy="RR", policy_overrides=TILE_ROUTED
    ).run()


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
