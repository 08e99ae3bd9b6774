"""Shared experiment machinery: run helpers and result tables.

Every experiment module exposes ``run(scale=..., timesteps=...) ->
ResultTable``.  ``scale`` shrinks the paper's datasets proportionally (the
compute/IO/network balance is preserved, so orderings and crossovers hold);
``timesteps`` is how many consecutive timesteps are rendered and averaged,
mirroring the paper's "average of five consecutive timesteps".
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.instrument import RunMetrics
from repro.data.storage import StorageMap
from repro.engines.simulated import SimulatedEngine
from repro.sim.cluster import Cluster
from repro.viz.app import IsosurfaceApp
from repro.viz.profile import DatasetProfile

__all__ = ["ResultTable", "run_datacutter", "mean"]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


@dataclass
class ResultTable:
    """A printable experiment result: ordered columns, dict rows."""

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **cells: Any) -> None:
        """Append one row; unknown columns are rejected."""
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(cells)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order (missing -> None)."""
        return [row.get(name) for row in self.rows]

    def select(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all (column, value) criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]

    def value(self, column: str, **criteria: Any) -> Any:
        """The single value of ``column`` in the unique matching row."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} rows match {criteria!r} (need exactly 1)"
            )
        return matches[0][column]

    def format(self) -> str:
        """Render as an aligned text table."""

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return "" if value is None else str(value)

        cells = [[fmt(row.get(c)) for c in self.columns] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def run_datacutter(
    cluster: Cluster,
    profile: DatasetProfile,
    storage: StorageMap,
    configuration: str,
    algorithm: str,
    policy: str,
    width: int,
    height: int,
    timesteps: Sequence[int] = (0,),
    compute_hosts: list[str] | None = None,
    merge_host: str | None = None,
    copies_per_host: int | dict[str, int] = 1,
) -> list[RunMetrics]:
    """Render ``timesteps`` consecutively with the DataCutter engine.

    Returns one :class:`RunMetrics` per timestep; reuse :func:`mean` over
    their ``makespan`` for paper-style averages.  Every run's counters are
    cross-checked with :meth:`RunMetrics.validate` before being returned,
    so a paper table can never be derived from books that don't balance.
    """
    results = []
    for t in timesteps:
        app = IsosurfaceApp(
            profile,
            storage,
            width=width,
            height=height,
            algorithm=algorithm,
            timestep=t,
        )
        graph = app.graph(configuration)
        placement = app.placement(
            configuration,
            compute_hosts=compute_hosts,
            merge_host=merge_host,
            copies_per_host=copies_per_host,
        )
        engine = SimulatedEngine(cluster, graph, placement, policy=policy)
        results.append(engine.run().validate(graph))
    return results
