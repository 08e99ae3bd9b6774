"""Table 5 — writer policies with an 8-way compute node on a slow link.

Paper setup (Figure 6): the dataset lives on 1/2/4/8 two-processor Red
nodes (Gigabit among themselves); the 8-way Deathstar node — reachable only
over Fast Ethernet — runs the single Merge copy plus seven Raster (or
ExtractRaster) copies; every data node runs one copy of each non-merge
filter.  Active pixel, 2048^2 image, policies RR / WRR / DD.

Expected shape: WRR is best (no background load, so weighting by copy
count is exactly right, with zero message overhead); DD pays for
acknowledgment traffic over the slow link; the compute node helps when
data sits on few nodes and stops helping at 8; RE-Ra-M beats R-ERa-M
(lower communication volume).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.placement import Placement
from repro.data.storage import HostDisks, StorageMap
from repro.engines.simulated import SimulatedEngine
from repro.experiments.common import ResultTable, mean
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.app import IsosurfaceApp
from repro.viz.profile import DatasetProfile, dataset_25gb

__all__ = ["run"]

COMPUTE_COPIES = 7  # raster copies on the 8-way node (merge takes a cpu)


def _one_point(
    profile: DatasetProfile,
    configuration: str,
    policy: str,
    data_nodes: int,
    image: int,
    timesteps: Sequence[int],
) -> float:
    times = []
    for t in timesteps:
        env = Environment()
        cluster = umd_testbed(
            env,
            red_nodes=data_nodes,
            blue_nodes=0,
            rogue_nodes=0,
            deathstar=True,
        )
        reds = [f"red{i}" for i in range(data_nodes)]
        storage = StorageMap.balanced(profile.files, [HostDisks(h, 1) for h in reds])
        app = IsosurfaceApp(
            profile, storage, width=image, height=image,
            algorithm="active", timestep=t,
        )
        graph = app.graph(configuration)
        placement = Placement()
        source = "RE" if configuration == "RE-Ra-M" else "R"
        worker = "Ra" if configuration == "RE-Ra-M" else "ERa"
        placement.spread(source, reds)
        placement.place(
            worker, [(h, 1) for h in reds] + [("deathstar0", COMPUTE_COPIES)]
        )
        placement.place("M", ["deathstar0"])
        metrics = SimulatedEngine(cluster, graph, placement, policy=policy).run()
        times.append(metrics.makespan)
    return mean(times)


def run(
    scale: float = 0.02,
    data_node_counts: Sequence[int] = (1, 2, 4, 8),
    image: int = 2048,
    timesteps: Sequence[int] = (0,),
) -> ResultTable:
    """Regenerate Table 5."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Table 5: policies with the 8-way compute node, active pixel, "
        f"{image}^2 image, {profile.name}",
        ["data_nodes", "config", "policy", "seconds"],
    )
    for data_nodes in data_node_counts:
        for config in ("RE-Ra-M", "R-ERa-M"):
            for policy in ("RR", "WRR", "DD"):
                table.add(
                    data_nodes=data_nodes,
                    config=config,
                    policy=policy,
                    seconds=_one_point(
                        profile, config, policy, data_nodes, image, timesteps
                    ),
                )
    table.notes.append(
        "paper shape: WRR best; DD close but pays ack overhead over the "
        "Fast Ethernet uplink; RE-Ra-M beats R-ERa-M; the compute node "
        "helps most with few data nodes"
    )
    return table
