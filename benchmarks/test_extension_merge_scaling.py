"""Bench: the distributed tile framebuffer vs the single Merge (simulated).

The single Merge filter is the pipeline's one stage that cannot be
transparently copied — the paper's bottleneck for every decomposition.
This scales the tile-routed merge (``merge_copies`` 1 -> 8) on a
merge-bound scene of the simulated cluster and asserts the shape only:
eight tile-merge copies beat the single merge.  What the real engines
make of ``merge_copies`` is measured on S129 in EXPERIMENTS.md.
"""

from repro.data import HostDisks, StorageMap
from repro.engines import SimulatedEngine
from repro.sim import Environment, homogeneous_cluster
from repro.viz import IsosurfaceApp
from repro.viz.profile import DatasetProfile

COPIES = (1, 2, 4, 8)


def makespans_by_copies():
    profile = DatasetProfile.synthetic(
        "scale", (33, 33, 33), nchunks=16, nfiles=8, timesteps=1,
        total_triangles=60_000,
    )
    data_hosts = ["node0", "node1", "node2", "node3"]
    storage = StorageMap.balanced(
        profile.files, [HostDisks(h, 2) for h in data_hosts]
    )
    rows = {}
    for copies in COPIES:
        cluster = homogeneous_cluster(Environment(), nodes=14)
        app = IsosurfaceApp(
            profile, storage, width=512, height=512,
            algorithm="zbuffer", merge_copies=copies,
        )
        placement = app.placement(
            "RE-Ra-M",
            compute_hosts=data_hosts,
            merge_host="node4",
            merge_hosts=(
                [f"node{5 + i}" for i in range(copies)] if copies > 1 else None
            ),
        )
        metrics = SimulatedEngine(
            cluster, app.graph("RE-Ra-M"), placement, policy="DD",
            policy_overrides=app.policy_overrides("RE-Ra-M"),
        ).run()
        rows[copies] = round(metrics.makespan, 4)
    return rows


def test_extension_merge_scaling(benchmark):
    makespans = benchmark.pedantic(makespans_by_copies, rounds=1, iterations=1)
    benchmark.extra_info["makespans"] = makespans
    assert makespans[8] < makespans[1], (
        f"8 merge copies did not beat the single merge: {makespans}"
    )
