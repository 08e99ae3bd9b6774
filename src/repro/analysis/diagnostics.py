"""Diagnostic objects: the output format of every analysis pass.

Both passes — the pipeline verifier (:mod:`repro.analysis.pipeline`) and
the filter-code lint (:mod:`repro.analysis.filtercode`) — report structured
:class:`Diagnostic` records instead of raising on the first problem, so a
single run surfaces every issue with its rule id, severity and fix hint.
A :class:`DiagnosticReport` aggregates them and provides the severity
queries the engines and the CLI gate on.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import AnalysisError, GraphError, PlacementError, ReproError

__all__ = ["Severity", "Diagnostic", "DiagnosticReport"]


class Severity(enum.IntEnum):
    """How bad one diagnostic is; ordering is by badness."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name, as used in JSON output and CLI filters."""
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        """Parse a case-insensitive severity name."""
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; choose from "
                f"{[s.label for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis rule.

    Parameters
    ----------
    rule:
        Rule id from the catalogue (e.g. ``"G102"``).
    name:
        The rule's kebab-case slug (e.g. ``"cycle"``).
    severity:
        :class:`Severity` of this particular finding (a rule may demote or
        promote its default, e.g. unpicklable state is an ERROR only when
        the pipeline targets the process engine).
    subject:
        What the finding is about: a filter, stream or host name for
        pipeline rules; ``Class.method`` for code rules.
    message:
        Human-readable statement of the problem.
    hint:
        Concrete fix suggestion.
    location:
        ``file:line`` for code-lint findings; empty for pipeline findings.
    """

    rule: str
    name: str
    severity: Severity
    subject: str
    message: str
    hint: str = ""
    location: str = ""

    def to_dict(self) -> dict[str, str]:
        """JSON-ready representation (all values are strings)."""
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.label,
            "subject": self.subject,
            "message": self.message,
            "hint": self.hint,
            "location": self.location,
        }

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return (
            f"{self.severity.label.upper():7s} {self.rule} "
            f"({self.name}) {self.subject}: {self.message}{where}"
        )


#: Rule-id prefix -> exception type raised for ERROR diagnostics of that
#: scope, preserving the pre-analysis API (``FilterGraph.validate`` raised
#: GraphError, ``Placement.validate`` raised PlacementError).
_SCOPE_EXCEPTIONS: dict[str, type[ReproError]] = {
    "G": GraphError,
    "P": PlacementError,
}


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics from one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def append(self, diagnostic: Diagnostic) -> None:
        """Add one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Add many findings."""
        self.diagnostics.extend(diagnostics)

    def sort(self) -> None:
        """Deterministic presentation: errors first, then by rule id/subject."""
        self.diagnostics.sort(
            key=lambda d: (-int(d.severity), d.rule, d.subject, d.message)
        )

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        """ERROR-level findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """WARNING-level findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def max_severity(self) -> Severity | None:
        """The worst severity present, or ``None`` when the report is clean."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        """All findings of one rule id."""
        return [d for d in self.diagnostics if d.rule == rule]

    def rule_ids(self) -> set[str]:
        """The distinct rule ids that fired."""
        return {d.rule for d in self.diagnostics}

    def raise_errors(self) -> None:
        """Raise if the report carries ERROR diagnostics.

        The exception type follows the first error's rule scope —
        :class:`~repro.errors.GraphError` for ``G*`` rules,
        :class:`~repro.errors.PlacementError` for ``P*`` rules,
        :class:`~repro.errors.AnalysisError` otherwise — so existing
        callers that caught the specific types keep working.  The message
        is the first error's message, followed by a count of any others.
        """
        errors = self.errors
        if not errors:
            return
        first = errors[0]
        exc_type = _SCOPE_EXCEPTIONS.get(first.rule[:1], AnalysisError)
        message = first.message
        if len(errors) > 1:
            message += f" (+{len(errors) - 1} more ERROR diagnostics)"
        if exc_type is AnalysisError:
            raise AnalysisError(f"[{first.rule}] {message}", report=self)
        raise exc_type(message)
