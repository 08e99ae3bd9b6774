"""Table 3 — DD routing shifts buffers from loaded to unloaded nodes.

Same setup as Figure 5.  The statistic: the average number of buffers each
Raster copy receives over the (R)E -> Ra stream, grouped by node class
(Rogue = loaded, Blue = dedicated), as the background-job count grows.

Expected shape: at 0 jobs the split is near even; as jobs grow, the Rogue
share falls monotonically (DD directs buffers to the consumers showing
recent good performance), and the shift is stronger for the 2048^2 image
(more compute to route around).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import ResultTable, mean
from repro.experiments.figure5 import heterogeneous_run
from repro.viz.profile import dataset_25gb

__all__ = ["run"]


def run(
    scale: float = 0.02,
    per_side_counts: Sequence[int] = (2, 4),
    background_levels: Sequence[int] = (0, 1, 4, 16),
    image_sizes: Sequence[int] = (512, 2048),
    timesteps: Sequence[int] = (0,),
) -> ResultTable:
    """Regenerate Table 3 (avg buffers per Raster copy per node class)."""
    profile = dataset_25gb(scale=scale)
    table = ResultTable(
        f"Table 3: avg RE->Ra buffers per Raster copy per node class (DD), "
        f"{profile.name}",
        [
            "rogue+blue",
            "bg_jobs",
            "image",
            "algorithm",
            "rogue_avg",
            "blue_avg",
            "rogue_share",
        ],
    )
    host_class = {f"rogue{i}": "rogue" for i in range(16)}
    host_class.update({f"blue{i}": "blue" for i in range(16)})
    for per_side in per_side_counts:
        for image in image_sizes:
            for algorithm, label in (("zbuffer", "DC Z-buffer"), ("active", "DC A.Pixel")):
                for jobs in background_levels:
                    metrics = heterogeneous_run(
                        profile, per_side, jobs, image, algorithm, timesteps
                    )
                    per_class = [
                        m.buffers_per_copy_by_class("Ra", host_class)
                        for m in metrics
                    ]
                    rogue_avg = mean(pc.get("rogue", 0.0) for pc in per_class)
                    blue_avg = mean(pc.get("blue", 0.0) for pc in per_class)
                    total = rogue_avg + blue_avg
                    table.add(
                        **{"rogue+blue": f"{per_side}+{per_side}"},
                        bg_jobs=jobs,
                        image=image,
                        algorithm=label,
                        rogue_avg=rogue_avg,
                        blue_avg=blue_avg,
                        rogue_share=rogue_avg / total if total else 0.0,
                    )
    table.notes.append(
        "paper shape: the rogue share starts near 0.5 and falls "
        "monotonically with background jobs; the fall is steeper at 2048^2"
    )
    return table
