"""Rendering of diagnostic reports: ``text`` for humans, ``json`` for CI.

The JSON shape is stable (``version`` 2)::

    {
      "version": 2,
      "summary": {"error": 1, "warning": 2, "info": 0},
      "diagnostics": [
        {"rule": "G102", "name": "cycle", "severity": "error",
         "subject": "graph", "message": "...", "hint": "..."},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.analysis.rules import rule_catalogue

__all__ = ["format_text", "to_json_dict", "to_json", "format_rule_catalogue"]

_REPORT_VERSION = 2


def format_text(report: DiagnosticReport, show_hints: bool = True) -> str:
    """A line per diagnostic plus a severity summary; '' when clean."""
    if not report:
        return "no diagnostics"
    lines: list[str] = []
    for diag in report:
        lines.append(str(diag))
        if show_hints and diag.hint:
            lines.append(f"        fix: {diag.hint}")
    counts = _summary(report)
    lines.append(
        "-- "
        + ", ".join(f"{n} {label}" for label, n in counts.items() if n)
        + f" ({len(report)} total)"
    )
    return "\n".join(lines)


def _summary(report: DiagnosticReport) -> dict[str, int]:
    counts = {s.label: 0 for s in sorted(Severity, reverse=True)}
    for diag in report:
        counts[diag.severity.label] += 1
    return counts


def to_json_dict(report: DiagnosticReport) -> dict[str, Any]:
    """The stable JSON-ready dict form of a report."""
    return {
        "version": _REPORT_VERSION,
        "summary": _summary(report),
        "diagnostics": [diag.to_dict() for diag in report],
    }


def to_json(report: DiagnosticReport, indent: int | None = 2) -> str:
    """The report serialised as a JSON document."""
    return json.dumps(to_json_dict(report), indent=indent)


def format_rule_catalogue() -> str:
    """The full rule catalogue as aligned text (``repro lint --rules``)."""
    lines = []
    for rule in rule_catalogue():
        lines.append(
            f"{rule.id}  {rule.severity.label.upper():7s} "
            f"{rule.name}  [{rule.scope}]"
        )
        lines.append(f"      {rule.summary}")
        lines.append(f"      fix: {rule.hint}")
    return "\n".join(lines)
