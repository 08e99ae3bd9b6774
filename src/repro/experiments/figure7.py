"""Figure 7 — skewed data distribution across two clusters.

Paper setup: two Blue + two Rogue nodes; the 25 GB dataset starts evenly
partitioned over all four nodes ("balanced"), then P% (25/50/75) of the
files on the Blue nodes move to the Rogue nodes.  Active pixel, 2048^2
image; all three filter configurations x {RR, WRR, DD}.

Expected shape: RERa-M is the most sensitive to skew (pure SPMD — the node
with the most data gates the run); R-ERa-M decouples retrieval from
processing and degrades less; RE-Ra-M is best overall (same decoupling,
less data on the wire); DD helps more as skew grows.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.storage import HostDisks, StorageMap
from repro.experiments.common import ResultTable, mean, run_datacutter
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.profile import DatasetProfile, dataset_25gb

__all__ = ["run"]

CONFIGS = ("RERa-M", "R-ERa-M", "RE-Ra-M")


def _storage(profile: DatasetProfile, blue, rogue, skew_fraction: float) -> StorageMap:
    balanced = StorageMap.balanced(
        profile.files,
        [HostDisks(h, 2) for h in blue + rogue],
    )
    if skew_fraction == 0.0:
        return balanced
    return balanced.skew(blue, [HostDisks(h, 2) for h in rogue], skew_fraction)


def _one_point(
    profile: DatasetProfile,
    configuration: str,
    policy: str,
    skew_fraction: float,
    image: int,
    timesteps: Sequence[int],
) -> float:
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=2, rogue_nodes=2, deathstar=False
    )
    blue = ["blue0", "blue1"]
    rogue = ["rogue0", "rogue1"]
    storage = _storage(profile, blue, rogue, skew_fraction)
    metrics = run_datacutter(
        cluster,
        profile,
        storage,
        configuration=configuration,
        algorithm="active",
        policy=policy,
        width=image,
        height=image,
        timesteps=timesteps,
        compute_hosts=blue + rogue,
        merge_host="blue0",
    )
    return mean(m.makespan for m in metrics)


def run(
    scale: float = 0.02,
    skew_levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    image: int = 2048,
    timesteps: Sequence[int] = (0,),
) -> ResultTable:
    """Regenerate Figure 7 (four bar groups as one table)."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Figure 7: skewed data distribution, 2 Blue + 2 Rogue, active "
        f"pixel, {image}^2 image, {profile.name}",
        ["skew", "config", "policy", "seconds"],
    )
    for skew in skew_levels:
        for config in CONFIGS:
            for policy in ("RR", "WRR", "DD"):
                table.add(
                    skew=f"{int(skew * 100)}%",
                    config=config,
                    policy=policy,
                    seconds=_one_point(
                        profile, config, policy, skew, image, timesteps
                    ),
                )
    table.notes.append(
        "paper shape: RERa-M degrades most with skew; R-ERa-M decouples "
        "retrieval from compute; RE-Ra-M is best; DD helps under skew"
    )
    return table
