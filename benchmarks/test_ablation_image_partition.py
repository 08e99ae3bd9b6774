"""Ablation: image-replicated Merge vs image-partitioned rasters.

The paper's conclusions propose partitioning the image space among the
raster filters to eliminate the Merge bottleneck, at the risk of load
imbalance when subregion work is uneven.  This bench measures both sides:

- with many raster copies, the merge-free design wins (no single node
  receives every WPA buffer);
- with skewed region weights, the partitioned design loses its edge (the
  heaviest strip owner gates the run) while the merge-based pipeline is
  indifferent to where triangles land on screen.
"""

from repro.core.placement import Placement
from repro.data import HostDisks, StorageMap
from repro.engines import SimulatedEngine
from repro.sim import Environment, umd_testbed
from repro.viz.app import IsosurfaceApp
from repro.viz.partitioned import build_partitioned_graph
from repro.viz.profile import dataset_25gb

NODES = 8


def _cluster():
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=0, rogue_nodes=NODES, deathstar=False
    )
    return cluster, [f"rogue{i}" for i in range(NODES)]


def run_merge_based(profile, width=2048):
    cluster, nodes = _cluster()
    storage = StorageMap.balanced(profile.files, [HostDisks(h, 2) for h in nodes])
    app = IsosurfaceApp(profile, storage, width=width, height=width, algorithm="active")
    metrics = SimulatedEngine(
        cluster,
        app.graph("RE-Ra-M"),
        app.placement("RE-Ra-M", compute_hosts=nodes),
        policy="DD",
    ).run()
    return metrics.makespan


def run_partitioned(profile, weights=None, width=2048):
    cluster, nodes = _cluster()
    storage = StorageMap.balanced(profile.files, [HostDisks(h, 2) for h in nodes])
    graph = build_partitioned_graph(
        profile, storage, timestep=0, width=width, height=width,
        regions=NODES, region_weights=weights,
    )
    # One strip owner per node: Ra<o> on node o, fed by its own stream.
    placement = Placement().spread("RE", nodes)
    for owner, node in enumerate(nodes):
        placement.place(f"Ra{owner}", [node])
    return SimulatedEngine(cluster, graph, placement, policy="RR").run().makespan


def compare(scale=0.05):
    profile = dataset_25gb(scale=scale)
    skewed = [4.0] + [1.0] * (NODES - 1)  # one strip holds ~1/3 of the surface
    return {
        "merge": run_merge_based(profile),
        "partitioned_even": run_partitioned(profile),
        "partitioned_skewed": run_partitioned(profile, weights=skewed),
    }


def test_ablation_image_partition(benchmark):
    times = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["makespans"] = {k: round(v, 3) for k, v in times.items()}
    # Eliminating the merge bottleneck pays off with many copies...
    assert times["partitioned_even"] < times["merge"]
    # ...but screen-space load imbalance eats the advantage.
    assert times["partitioned_skewed"] > times["partitioned_even"]
