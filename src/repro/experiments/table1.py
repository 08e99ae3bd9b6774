"""Table 1 — buffers and data volume per stream, z-buffer vs active pixel.

Paper setup: the four filters isolated on four separate hosts, the 1.5 GB
dataset, a 2048x2048 output image.  The table reports the number of buffers
and megabytes carried by the R->E, E->Ra and Ra->M streams for the two
hidden-surface-removal algorithms.

Expected shape: identical R->E and E->Ra traffic; Ra->M carries exactly
``W*H*8`` bytes in few large buffers for z-buffer, and many smaller buffers
with (usually) less total volume for active pixel.
"""

from __future__ import annotations

from repro.core.placement import Placement
from repro.data.storage import HostDisks, StorageMap
from repro.engines.simulated import SimulatedEngine
from repro.experiments.common import ResultTable
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.app import IsosurfaceApp
from repro.viz.profile import dataset_1p5gb

__all__ = ["run", "baseline_pipeline"]


def baseline_pipeline(profile, algorithm: str, width: int, height: int, timestep: int = 0):
    """The Tables 1-2 baseline: R, E, Ra, M each isolated on its own host.

    Returns the run's :class:`~repro.core.instrument.RunMetrics`.
    """
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=0, rogue_nodes=4, deathstar=False
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("rogue0", 2)])
    app = IsosurfaceApp(
        profile, storage, width=width, height=height, algorithm=algorithm,
        timestep=timestep,
    )
    graph = app.graph("R-E-Ra-M")
    placement = (
        Placement()
        .place("R", ["rogue0"])
        .place("E", ["rogue1"])
        .place("Ra", ["rogue2"])
        .place("M", ["rogue3"])
    )
    return SimulatedEngine(cluster, graph, placement, policy="RR").run()


def run(scale: float = 0.1, width: int = 2048, height: int = 2048) -> ResultTable:
    """Regenerate Table 1 at the given dataset scale."""
    profile = dataset_1p5gb(scale=scale)
    table = ResultTable(
        f"Table 1: stream traffic, R-E-Ra-M on 4 hosts, {profile.name}, "
        f"{width}x{height} image",
        ["algorithm", "stream", "buffers", "MB"],
    )
    for algorithm in ("zbuffer", "active"):
        metrics = baseline_pipeline(profile, algorithm, width, height)
        for stream in ("R->E", "E->Ra", "Ra->M"):
            buffers, nbytes = metrics.stream_totals(stream)
            table.add(
                algorithm=algorithm,
                stream=stream,
                buffers=buffers,
                MB=nbytes / 1e6,
            )
    table.notes.append(
        "paper (full scale): R->E 443 buf/38.6 MB; E->Ra 470 buf/11.8 MB; "
        "Ra->M 16 buf/32.0 MB (zbuffer) vs 469 buf/28.5 MB (active)"
    )
    return table
