"""Table 2 — per-filter processing time and share of total.

Same setup as Table 1 (four isolated filters, 1.5 GB dataset, 2048x2048
image).  The paper reports, per filter, the processing time in seconds and
its percentage of the pipeline's total: R 0.68 s (5.3 %), E 1.65 s
(13.0 %), Ra 9.43 s (74.5 %), M 0.90 s (7.1 %) for z-buffer, and a
slightly more expensive Raster for active pixel.

Expected shape: Raster dominates (~3/4 of all filter time); Read is
cheapest; active pixel shifts a little more work into Ra and less into M.
"""

from __future__ import annotations

from repro.experiments.common import ResultTable
from repro.experiments.table1 import baseline_pipeline
from repro.viz.profile import dataset_1p5gb

__all__ = ["run"]

_FILTERS = ("R", "E", "Ra", "M")


def run(scale: float = 0.1, width: int = 2048, height: int = 2048) -> ResultTable:
    """Regenerate Table 2 at the given dataset scale."""
    profile = dataset_1p5gb(scale=scale)
    table = ResultTable(
        f"Table 2: filter processing times, {profile.name}, "
        f"{width}x{height} image",
        ["algorithm", "filter", "seconds", "percent"],
    )
    for algorithm in ("zbuffer", "active"):
        metrics = baseline_pipeline(profile, algorithm, width, height)
        # Processing time = CPU busy time, plus disk time for the Read
        # filter (its work is I/O-dominated).
        times = {
            name: metrics.filter_busy_time(name) + metrics.filter_io_time(name)
            for name in _FILTERS
        }
        total = sum(times.values())
        for name in _FILTERS:
            table.add(
                algorithm=algorithm,
                filter=name,
                seconds=times[name],
                percent=100.0 * times[name] / total,
            )
    table.notes.append(
        "paper (full scale, zbuffer): R 0.68s/5.3%  E 1.65s/13.0%  "
        "Ra 9.43s/74.5%  M 0.90s/7.1%  (sum 12.66s)"
    )
    return table
