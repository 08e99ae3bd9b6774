"""Declared effects and the memoisation certifier (``E7xx``).

A filter declares its effects class on ``FilterSpec.effects``
(``pure`` / ``stateful`` / ``io`` / ``nondeterministic``).  Nothing here
reads filter code: :func:`certify_memoisable` — the gate a result cache
passes before it may replay a subgraph's output — trusts the
declaration, and the replay witness in
``tests/analysis/test_replay_witness.py`` runs every shipped stage to
hold the declarations to the code.  An undeclared member is refused like
an impure one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.rules import RULES
from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.graph import FilterGraph

__all__ = ["Effect", "EFFECT_NAMES", "MemoCertificate", "certify_memoisable"]


class Effect(IntEnum):
    """Effects lattice; a fused stage declares the maximum (worst) part."""

    PURE = 0
    STATEFUL = 1
    IO = 2
    NONDETERMINISTIC = 3

    @property
    def label(self) -> str:
        """Lower-case name, as used by ``FilterSpec.effects``."""
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Effect":
        """The effect named by ``text`` (``'pure'``, ``'io'``, ...)."""
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown effects class {text!r}") from None


#: Valid ``FilterSpec.effects`` declarations.
EFFECT_NAMES: frozenset[str] = frozenset(e.label for e in Effect)


@dataclass
class MemoCertificate:
    """Result of :func:`certify_memoisable`.

    ``ok`` is True only when every member declares ``effects="pure"`` and
    the subgraph is convex; ``report`` carries the E703/E705 findings that
    justify a rejection (empty on success).
    """

    ok: bool
    subgraph: tuple[str, ...]
    report: DiagnosticReport = field(default_factory=DiagnosticReport)


def certify_memoisable(
    graph: "FilterGraph", subgraph: Iterable[str]
) -> MemoCertificate:
    """Certify that a subgraph's output may be memoised.

    Granted only when every member declares ``effects="pure"`` (an
    undeclared or impure member is an E703) and the member set is
    *convex*: no path leaves it and re-enters it (E705).
    """
    members = tuple(dict.fromkeys(subgraph))
    if not members:
        raise GraphError("cannot certify an empty subgraph")
    report = DiagnosticReport()
    for name in members:
        spec = graph.filters.get(name)
        if spec is None:
            raise GraphError(f"unknown filter {name!r} in subgraph")
        if spec.effects != Effect.PURE.label:
            declared = spec.effects or "undeclared"
            report.append(
                RULES["E703"].diagnostic(
                    name,
                    f"filter {name!r} is {declared}, not declared pure; "
                    f"memoising its output could replay stale state",
                )
            )

    # Convexity: an outside filter both reachable from the member set
    # and reaching back into it sits on a member-to-member path.
    downstream: set[str] = set()
    upstream: set[str] = set()
    for name in members:
        downstream |= graph.downstream_of(name)
        upstream |= graph.upstream_of(name)
    straddlers = sorted((downstream & upstream) - set(members))
    if straddlers:
        report.append(
            RULES["E705"].diagnostic(
                ",".join(members),
                f"subgraph is not convex: {straddlers} sit on paths "
                f"between members but are not included",
            )
        )
    return MemoCertificate(
        ok=not report.diagnostics, subgraph=members, report=report
    )
