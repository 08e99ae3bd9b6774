#!/usr/bin/env python
"""Transparent copies: scaling the bottleneck filter, and the Merge limit.

The paper's central mechanism: the Raster filter dominates the pipeline
(Table 2), so execute more transparent copies of it.  This example scales
Raster copies across the simulated Blue cluster and shows (a) the speedup,
(b) the Merge filter gradually becoming the bottleneck (the paper's
Conclusions), and (c) the proposed fix — partitioning the image space among
the raster filters so no Merge is needed.

Run:  python examples/transparent_copies.py
"""

from repro.core.placement import Placement
from repro.data import HostDisks, StorageMap
from repro.engines import SimulatedEngine
from repro.sim import Environment, umd_testbed
from repro.viz import IsosurfaceApp
from repro.viz.partitioned import build_partitioned_graph
from repro.viz.profile import dataset_1p5gb

NODES = [f"blue{i}" for i in range(8)]


def build(profile):
    env = Environment()
    cluster = umd_testbed(env, red_nodes=0, blue_nodes=8, rogue_nodes=0,
                          deathstar=False)
    storage = StorageMap.balanced(
        profile.files, [HostDisks(h, 2) for h in NODES[:4]]
    )
    return cluster, storage


def main() -> None:
    profile = dataset_1p5gb(scale=0.2)
    print(f"dataset: {profile.name}, {profile.total_triangles(0)} triangles")

    print("\n-- scaling transparent Raster copies (RE-Ra-M, DD, 2048^2) --")
    print(f"{'Ra copies':>10} {'seconds':>9} {'merge busy s':>13}")
    for hosts in (1, 2, 4, 8):
        cluster, storage = build(profile)
        app = IsosurfaceApp(
            profile, storage, width=2048, height=2048, algorithm="active"
        )
        graph = app.graph("RE-Ra-M")
        placement = app.placement(
            "RE-Ra-M", compute_hosts=NODES[:hosts], merge_host=NODES[-1]
        )
        metrics = SimulatedEngine(
            cluster, graph, placement, policy="DD"
        ).run().validate(graph)
        merge_busy = metrics.filter_busy_time("M")
        print(f"{hosts:>10} {metrics.makespan:>9.2f} {merge_busy:>13.2f}")

    print("\n-- eliminating Merge: image-partitioned raster filters --")
    cluster, storage = build(profile)
    graph = build_partitioned_graph(
        profile, storage, timestep=0, width=2048, height=2048, regions=8
    )
    # One strip owner per node, in owner order, behind the TileRouted policy.
    placement = Placement().spread("RE", NODES[:4]).place("Ra", NODES)
    metrics = SimulatedEngine(
        cluster, graph, placement, policy="RR",
        policy_overrides={"RE->Ra": "TILE"},
    ).run().validate(graph)
    print(f"partitioned over 8 strip owners: {metrics.makespan:.2f} s")
    print(
        "\nWith few copies the single Merge is harmless; as copies grow it "
        "concentrates\nall WPA traffic on one node.  Partitioning the image "
        "removes that bottleneck\nat the price of screen-space load balance "
        "(see benchmarks/test_ablation_image_partition.py)."
    )


if __name__ == "__main__":
    main()
