"""Figure 2(a) — "Isosurface rendering of chemical densities in a reactive
transport simulation."

The one non-diagram figure outside the evaluation section: an actual
rendering.  This generator runs the real threaded pipeline over a synthetic
reactive-transport dataset (one chemical species' concentration field) and
writes the image as a PPM next to the repository root (or a caller-chosen
path), reporting the pipeline statistics as a table.
"""

from __future__ import annotations

from pathlib import Path

from repro.data.parssim import ParSSimDataset
from repro.data.storage import HostDisks, StorageMap
from repro.engines.threaded import ThreadedEngine
from repro.errors import DataError
from repro.experiments.common import ResultTable
from repro.serve import ppm_bytes
from repro.viz.app import IsosurfaceApp
from repro.viz.profile import DatasetProfile

__all__ = ["run"]


def run(
    scale: float = 1.0,
    image: int = 256,
    isovalue: float = 0.25,
    output: str | Path | None = None,
) -> ResultTable:
    """Render the figure; returns pipeline statistics.

    ``scale`` is a fraction of the 41^3 grid's voxels, as it is for the
    simulated datasets.  ``output`` (default ``figure2a.ppm`` in the working
    directory) receives the image.
    """
    if not 0 < scale <= 1.0:
        raise DataError(f"scale must be in (0, 1], got {scale}")
    grid = round(41 * scale ** (1 / 3))
    dataset = ParSSimDataset((grid, grid, grid), timesteps=1, species=4, seed=2)
    profile = DatasetProfile.measured(
        "figure2a", dataset, nchunks=27, nfiles=8, isovalue=isovalue
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(
        profile, storage, width=image, height=image, algorithm="active",
        dataset=dataset, isovalue=isovalue,
    )
    metrics = ThreadedEngine(
        app.graph("RE-Ra-M"),
        app.placement("RE-Ra-M", copies_per_host=2),
        policy="DD",
    ).run()
    result = metrics.result
    path = Path(output) if output is not None else Path("figure2a.ppm")
    path.write_bytes(ppm_bytes(result.image))

    table = ResultTable(
        f"Figure 2(a): reactive-transport isosurface, {grid}^3 grid, "
        f"iso={isovalue} -> {path}",
        ["quantity", "value"],
    )
    table.add(quantity="triangles", value=profile.total_triangles(0))
    table.add(quantity="active pixels", value=result.active_pixels)
    table.add(quantity="merge buffers", value=result.buffers_merged)
    buffers, nbytes = metrics.stream_totals("RE->Ra")
    table.add(quantity="RE->Ra buffers", value=buffers)
    table.add(quantity="RE->Ra kB", value=nbytes / 1e3)
    return table
