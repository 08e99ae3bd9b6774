"""Figure 5 — heterogeneity from background jobs: ADR vs DataCutter.

Paper setup: half Rogue + half Blue nodes (2+2, 4+4, 8+8); a varying number
of equal-priority background jobs (0/1/4/16) on every Rogue node, Blue
dedicated; the 25 GB dataset uniformly partitioned over all nodes in use;
RE-Ra-M with the DD policy; 512^2 and 2048^2 images.  Bars are normalised
to the original ADR time for the same point.

Expected shape: with low background load ADR wins (homogeneous-like);
as jobs grow ADR degrades sharply — its static partition cannot offload
the loaded Rogue nodes — while both DataCutter versions stay nearly flat,
so their normalised bars fall well below 1.  The effect is stronger for
2048^2 (more Raster work to move).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adr import ADRRuntime
from repro.core.instrument import RunMetrics
from repro.data.storage import HostDisks, StorageMap
from repro.experiments.common import ResultTable, mean, run_datacutter
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.profile import DatasetProfile, dataset_25gb

__all__ = ["run", "heterogeneous_run"]


def _mixed_cluster(per_side: int, background_jobs: int):
    """``per_side`` Rogue + ``per_side`` Blue nodes; jobs on every Rogue."""
    env = Environment()
    cluster = umd_testbed(
        env,
        red_nodes=0,
        blue_nodes=per_side,
        rogue_nodes=per_side,
        deathstar=False,
    )
    rogue = [f"rogue{i}" for i in range(per_side)]
    blue = [f"blue{i}" for i in range(per_side)]
    cluster.set_background_load(background_jobs, hosts=rogue)
    return cluster, rogue, blue


def heterogeneous_run(
    profile: DatasetProfile,
    per_side: int,
    background_jobs: int,
    image: int,
    algorithm: str,
    timesteps: Sequence[int],
    policy: str = "DD",
) -> list[RunMetrics]:
    """One DataCutter point of the Figure 5 grid (also feeds Table 3)."""
    cluster, rogue, blue = _mixed_cluster(per_side, background_jobs)
    nodes = rogue + blue
    storage = StorageMap.balanced(
        profile.files,
        [HostDisks(h, 2) for h in nodes],
    )
    return run_datacutter(
        cluster,
        profile,
        storage,
        configuration="RE-Ra-M",
        algorithm=algorithm,
        policy=policy,
        width=image,
        height=image,
        timesteps=timesteps,
        compute_hosts=nodes,
        merge_host=blue[0],  # merge on a dedicated (unloaded) node
    )


def run(
    scale: float = 0.02,
    per_side_counts: Sequence[int] = (2, 4, 8),
    background_levels: Sequence[int] = (0, 1, 4, 16),
    image_sizes: Sequence[int] = (512, 2048),
    timesteps: Sequence[int] = (0,),
) -> ResultTable:
    """Regenerate Figure 5 (normalised-to-ADR execution times)."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Figure 5: background-load heterogeneity, Rogue+Blue, {profile.name}",
        ["rogue+blue", "bg_jobs", "image", "system", "seconds", "normalized"],
    )
    for per_side in per_side_counts:
        for image in image_sizes:
            for jobs in background_levels:
                cluster, rogue, blue = _mixed_cluster(per_side, jobs)
                adr_times = [
                    ADRRuntime(
                        cluster,
                        rogue + blue,
                        profile,
                        width=image,
                        height=image,
                        timestep=t,
                    )
                    .run()
                    .makespan
                    for t in timesteps
                ]
                adr = mean(adr_times)
                label = f"{per_side}+{per_side}"
                table.add(
                    **{"rogue+blue": label},
                    bg_jobs=jobs,
                    image=image,
                    system="ADR",
                    seconds=adr,
                    normalized=1.0,
                )
                for algorithm, name in (
                    ("zbuffer", "DC Z-buffer"),
                    ("active", "DC Active Pixel"),
                ):
                    metrics = heterogeneous_run(
                        profile, per_side, jobs, image, algorithm, timesteps
                    )
                    seconds = mean(m.makespan for m in metrics)
                    table.add(
                        **{"rogue+blue": label},
                        bg_jobs=jobs,
                        image=image,
                        system=name,
                        seconds=seconds,
                        normalized=seconds / adr,
                    )
    table.notes.append(
        "paper shape: ADR (=1.0) degrades with bg jobs; both DC versions "
        "stay nearly flat, so their normalised values drop below 1 as load "
        "grows; ADR wins only at low load with many nodes"
    )
    return table
