"""Static analysis of filter pipelines.

Every check reports structured :class:`Diagnostic` objects with a stable
rule id, a severity and a fix hint (see :mod:`repro.analysis.rules` for
the catalogue):

**The pipeline verifier** (:func:`verify_pipeline`): rule-based checks
over ``(FilterGraph, Placement, writer policy, cluster hosts)`` —
dangling/unreachable filters and streams, cycles, source/sink arity,
copy sets on unknown hosts, degenerate WRR weights, demand-driven windows
that defeat the bounded queues, phase-synchronised (z-buffer) filters
behind unsynchronised fan-in.  Every engine runs it before executing: ERROR diagnostics
abort the run, WARNING diagnostics become ``analysis`` trace events.
``repro lint --graph-module`` reports exactly what that gate reports.

**The memoisation certifier** (:mod:`repro.analysis.effects`, ``E7xx``):
:func:`certify_memoisable` is the gate a result cache passes before it
may replay a subgraph's output — every member declared pure
(``FilterSpec.effects``) and the member set convex.
"""

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.effects import Effect, MemoCertificate, certify_memoisable
from repro.analysis.pipeline import (
    verify_flow,
    verify_graph,
    verify_pipeline,
    verify_placement,
)
from repro.analysis.report import (
    format_rule_catalogue,
    format_text,
    to_json,
    to_json_dict,
)
from repro.analysis.rules import RULES, Rule, rule_catalogue

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "Rule",
    "RULES",
    "rule_catalogue",
    "verify_graph",
    "verify_placement",
    "verify_flow",
    "verify_pipeline",
    "Effect",
    "MemoCertificate",
    "certify_memoisable",
    "format_text",
    "to_json",
    "to_json_dict",
    "format_rule_catalogue",
]
