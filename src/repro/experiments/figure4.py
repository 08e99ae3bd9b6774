"""Figure 4 — ADR vs DataCutter on dedicated homogeneous nodes.

Paper setup: 1/2/4/8 dedicated Rogue nodes, the 25 GB dataset uniformly
partitioned over the nodes in use, RE-Ra-M configuration, 512x512 and
2048x2048 images.  Three systems: the original ADR, the DataCutter z-buffer
implementation ("DC Z-buffer"), and the DataCutter active-pixel
implementation ("DC Active Pixel").

Expected shape: ADR is the best (or tied) on few dedicated nodes — it is
tuned for exactly this case; DC Z-buffer is the worst but stays within
tens of percent; DC Active Pixel is about the same as ADR and wins as
nodes (and the 2048^2 merge volume) grow.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adr import ADRRuntime
from repro.data.storage import HostDisks, StorageMap
from repro.experiments.common import ResultTable, mean, run_datacutter
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.profile import dataset_25gb

__all__ = ["run"]


def _rogue_cluster(nodes: int):
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=0, rogue_nodes=nodes, deathstar=False
    )
    return cluster, [f"rogue{i}" for i in range(nodes)]


def run(
    scale: float = 0.02,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    image_sizes: Sequence[int] = (512, 2048),
    timesteps: Sequence[int] = (0, 1),
) -> ResultTable:
    """Regenerate Figure 4 (as a table of absolute seconds per timestep)."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Figure 4: ADR vs DataCutter, homogeneous Rogue nodes, "
        f"{profile.name}",
        ["nodes", "image", "system", "seconds"],
    )
    for nodes in node_counts:
        for image in image_sizes:
            # ADR (z-buffer, its native accumulator model).
            cluster, names = _rogue_cluster(nodes)
            adr_times = [
                ADRRuntime(
                    cluster, names, profile, width=image, height=image, timestep=t
                )
                .run()
                .makespan
                for t in timesteps
            ]
            table.add(
                nodes=nodes, image=image, system="ADR", seconds=mean(adr_times)
            )
            # DataCutter: both algorithms, RE-Ra-M, DD policy.
            for algorithm, label in (
                ("zbuffer", "DC Z-buffer"),
                ("active", "DC Active Pixel"),
            ):
                cluster, names = _rogue_cluster(nodes)
                storage = StorageMap.balanced(
                    profile.files, [HostDisks(h, 2) for h in names]
                )
                metrics = run_datacutter(
                    cluster,
                    profile,
                    storage,
                    configuration="RE-Ra-M",
                    algorithm=algorithm,
                    policy="DD",
                    width=image,
                    height=image,
                    timesteps=timesteps,
                    compute_hosts=names,
                )
                table.add(
                    nodes=nodes,
                    image=image,
                    system=label,
                    seconds=mean(m.makespan for m in metrics),
                )
    table.notes.append(
        "paper shape: ADR best or tied at low node counts; DC Active Pixel "
        "similar to or faster than ADR from 2 nodes; DC Z-buffer slowest"
    )
    return table
