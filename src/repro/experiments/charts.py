"""Text bar charts for the figure experiments.

The paper's Figures 4, 5 and 7 are bar charts; this module renders a
:class:`~repro.experiments.common.ResultTable` as grouped horizontal ASCII
bars so the shape (who wins, by how much, where the crossover falls) is
visible straight from a terminal::

    repro experiments --charts
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import ResultTable

__all__ = ["bar_chart"]

_BAR = "#"


def bar_chart(
    table: ResultTable,
    value: str,
    label_columns: Sequence[str],
    series_column: str,
    width: int = 48,
) -> str:
    """Render grouped horizontal bars.

    Parameters
    ----------
    table:
        The experiment result.
    value:
        Numeric column to plot (bar length).
    label_columns:
        Columns identifying a group (one blank-separated label per group).
    series_column:
        Column distinguishing the bars within a group (one bar per value).
    width:
        Character width of the longest bar.
    """
    rows = [r for r in table.rows if r.get(value) is not None]
    if not rows:
        return f"{table.title}\n(no data)"
    peak = max(float(r[value]) for r in rows)
    if peak <= 0:
        peak = 1.0
    series_names = []
    for row in rows:
        name = str(row[series_column])
        if name not in series_names:
            series_names.append(name)
    name_width = max(len(n) for n in series_names)

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(c) for c in label_columns)
        groups.setdefault(key, []).append(row)

    lines = [table.title, "=" * min(len(table.title), 78)]
    for key, members in groups.items():
        label = "  ".join(f"{c}={v}" for c, v in zip(label_columns, key))
        lines.append(label)
        for row in members:
            magnitude = float(row[value])
            bar = _BAR * max(1, round(magnitude / peak * width))
            lines.append(
                f"  {str(row[series_column]):<{name_width}} "
                f"{bar} {magnitude:.3f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
