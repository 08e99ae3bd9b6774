"""Experiment generators: one module per table/figure in the paper.

Each module exposes ``run(scale=..., ...) -> ResultTable`` and a ``main()``
that prints it; :data:`EXPERIMENTS` is the one list of them, read by
``repro experiments`` and by ``python -m repro.experiments`` (which runs the
whole evaluation section).  See DESIGN.md for the per-experiment index and
EXPERIMENTS.md for paper-vs-measured results.
"""

import importlib
from typing import NamedTuple

from repro.experiments.common import ResultTable, mean, run_datacutter

__all__ = ["EXPERIMENTS", "Experiment", "ResultTable", "mean", "run_datacutter"]


class Experiment(NamedTuple):
    """One entry of the registry; ``name`` is its module in this package."""

    name: str
    title: str
    extension: bool = False  # beyond the paper: run only when asked for
    chart: "tuple[str, list[str], str] | None" = None  # bar_chart's (value, labels, series)

    def load(self):
        return importlib.import_module(f"{__name__}.{self.name}")


EXPERIMENTS = (
    Experiment("table1", "Table 1"),
    Experiment("table2", "Table 2"),
    Experiment("table3", "Table 3"),
    Experiment("table4", "Table 4"),
    Experiment("table5", "Table 5"),
    Experiment("figure4", "Figure 4", chart=("seconds", ["nodes", "image"], "system")),
    Experiment(
        "figure5", "Figure 5",
        chart=("normalized", ["rogue+blue", "bg_jobs", "image"], "system"),
    ),
    Experiment("figure7", "Figure 7", chart=("seconds", ["skew", "policy"], "config")),
    Experiment(
        "dynamic_load", "Dynamic load (extension)", extension=True,
        chart=("seconds", ["timestep"], "policy"),
    ),
    Experiment("concurrent_queries", "Concurrent queries (extension)", extension=True),
    Experiment("validation", "Cross-engine validation (extension)", extension=True),
    Experiment("figure2a", "Figure 2a (extension)", extension=True),
)
