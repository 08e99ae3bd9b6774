"""Table 4 — filter configurations and writer policies under background load.

Paper setup: 8 Rogue nodes; every node runs one copy of each filter, the
eighth also runs the single Merge copy; the dataset is partitioned over all
8 nodes; background jobs (0/1/4/16) run on four of the non-merge nodes.
Grid: {RERa-M, RE-Ra-M, R-ERa-M} x {RR, DD} x {active pixel, z-buffer} x
{512^2, 2048^2}.

Expected shape: DD <= RR everywhere, the gap growing with load (except for
RERa-M, where a single combined filter leaves nothing to schedule);
RE-Ra-M is the best configuration; z-buffer at 2048^2 is much slower than
active pixel (synchronised merge of full z-buffers).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.storage import HostDisks, StorageMap
from repro.experiments.common import ResultTable, mean, run_datacutter
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.profile import DatasetProfile, dataset_25gb

__all__ = ["run", "CONFIGS"]

CONFIGS = ("RERa-M", "RE-Ra-M", "R-ERa-M")
NODES = 8
LOADED = 4  # background jobs on 4 of the 7 non-merge nodes


def _one_point(
    profile: DatasetProfile,
    configuration: str,
    algorithm: str,
    policy: str,
    image: int,
    jobs: int,
    timesteps: Sequence[int],
) -> float:
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=0, rogue_nodes=NODES, deathstar=False
    )
    names = [f"rogue{i}" for i in range(NODES)]
    cluster.set_background_load(jobs, hosts=names[:LOADED])
    storage = StorageMap.balanced(profile.files, [HostDisks(h, 2) for h in names])
    metrics = run_datacutter(
        cluster,
        profile,
        storage,
        configuration=configuration,
        algorithm=algorithm,
        policy=policy,
        width=image,
        height=image,
        timesteps=timesteps,
        compute_hosts=names,
        merge_host=names[-1],
    )
    return mean(m.makespan for m in metrics)


def run(
    scale: float = 0.02,
    background_levels: Sequence[int] = (0, 1, 4, 16),
    image_sizes: Sequence[int] = (512, 2048),
    timesteps: Sequence[int] = (0,),
) -> ResultTable:
    """Regenerate Table 4."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Table 4: configurations x policies under background load, "
        f"8 Rogue nodes, {profile.name}",
        ["bg_jobs", "image", "config", "algorithm", "policy", "seconds"],
    )
    for jobs in background_levels:
        for image in image_sizes:
            for config in CONFIGS:
                for algorithm in ("active", "zbuffer"):
                    for policy in ("RR", "DD"):
                        table.add(
                            bg_jobs=jobs,
                            image=image,
                            config=config,
                            algorithm=algorithm,
                            policy=policy,
                            seconds=_one_point(
                                profile, config, algorithm, policy,
                                image, jobs, timesteps,
                            ),
                        )
    table.notes.append(
        "paper shape: DD <= RR with the gap growing with load; RERa-M "
        "gains nothing from DD; RE-Ra-M is the best configuration; "
        "z-buffer at 2048^2 is far slower than active pixel"
    )
    return table
