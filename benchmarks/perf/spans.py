"""Span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around calls into the
program's layers; they stay in memory and are written once, at the end.
Each carries a name, start and end (seconds on the ``perf_counter``
clock, relative to the recorder's creation), its parent span and the
operation it belongs to.  A span's *self* time is its duration minus the
part its direct children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @property
    def active(self) -> bool:
        """Whether a span is open right now."""
        return bool(self._open)

    def open(self, name: str, op: "int | None" = None, **attrs) -> int:
        """Start a span under the innermost open one; returns its id."""
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.rows[parent]["op"]
        row = {
            "id": len(self.rows), "name": name, "op": op, "parent": parent,
            "start": time.perf_counter() - self._t0, "end": None, **attrs,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        return row["id"]

    def close(self, span: int, **attrs) -> float:
        """End a span (it must be the innermost); returns its seconds."""
        row = self.rows[span]
        row["end"] = time.perf_counter() - self._t0
        row.update(attrs)
        if self._open.pop() != span:
            raise RuntimeError(f"span {row['name']} closed out of order")
        return row["end"] - row["start"]

    @contextmanager
    def span(self, name: str, op: "int | None" = None, **attrs):
        span = self.open(name, op, **attrs)
        try:
            yield self.rows[span]
        finally:
            self.close(span)

    # -- reading -------------------------------------------------------------
    def seconds(self, name: str, **where) -> list[float]:
        """Durations of every closed span called ``name`` (filtered)."""
        return [
            row["end"] - row["start"]
            for row in self.rows
            if row["name"] == name and row["end"] is not None
            and all(row.get(k) == v for k, v in where.items())
        ]

    def median_ms(self, name: str, **where) -> float:
        values = self.seconds(name, **where)
        return statistics.median(values) * 1e3 if values else 0.0

    def medians_ms(self, *names: str) -> dict:
        """``{"<name>_ms": median duration}`` for each span name."""
        return {f"{name}_ms": self.median_ms(name) for name in names}

    def median_of(self, name: str, attr: str) -> float:
        """Median of a count recorded on the spans called ``name``."""
        return statistics.median(
            row[attr] for row in self.rows if row["name"] == name
        )

    def self_seconds(self, name: str) -> list[float]:
        """Self times: each ``name`` span minus its direct children."""
        covered: dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None and row["end"] is not None:
                covered[row["parent"]] = covered.get(row["parent"], 0.0) + (
                    row["end"] - row["start"]
                )
        return [
            row["end"] - row["start"] - covered.get(row["id"], 0.0)
            for row in self.rows
            if row["name"] == name and row["end"] is not None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")
