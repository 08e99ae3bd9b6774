"""Static analysis of filter pipelines and filter code.

Three passes, all reporting structured :class:`Diagnostic` objects with a
stable rule id, a severity and a fix hint (see
:mod:`repro.analysis.rules` for the catalogue):

**Pass 1 — pipeline verifier** (:func:`verify_pipeline`): rule-based
checks over ``(FilterGraph, Placement, writer policies, cluster hosts)``
— dangling/unreachable filters and streams, cycles, source/sink arity,
copy sets on unknown hosts, degenerate WRR weights, demand-driven windows
that defeat the bounded queues, phase-synchronised (z-buffer) filters
behind unsynchronised fan-in, and tile maps that do not partition their
viewport or match their placement.  Every engine runs it before executing: ERROR
diagnostics abort the run, WARNING diagnostics become ``analysis`` trace
events.

**Pass 2 — filter-code lint** (:func:`lint_file` / :func:`lint_class`):
stdlib-``ast`` checks over :class:`~repro.core.filter.Filter` subclasses
— payload mutation after ``ctx.write``, silent filters that never feed
their consumers, blocking calls in the per-buffer callback, unpicklable
state that cannot cross the process engine's fork/pickle boundary, and
per-cycle state never reset between units of work.  Nothing is imported or executed, so it lints untrusted pipeline definitions safely.

**Pass 3 — effects** (:mod:`repro.analysis.effects`, ``E7xx``): AST
effect and purity inference per filter class (PURE / STATEFUL / IO /
NONDETERMINISTIC), rolled up to subgraphs; :func:`certify_memoisable` is
the purity gate for result caches.  It reads the configuration off, so
:func:`verify_pipeline` always runs it: it is part of the engine gate, and
``repro lint --graph-module`` reports exactly what that gate reports.

All passes drive the ``repro lint`` CLI and the CI self-check.
"""

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.effects import (
    Effect,
    EffectSummary,
    MemoCertificate,
    certify_memoisable,
    graph_effects,
    infer_class_effects,
    spec_effects,
    subgraph_effect,
    verify_effects,
)
from repro.analysis.filtercode import (
    lint_class,
    lint_file,
    lint_graph_filters,
    lint_source,
)
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
    "EffectSummary",
    "MemoCertificate",
    "infer_class_effects",
    "spec_effects",
    "graph_effects",
    "subgraph_effect",
    "certify_memoisable",
    "verify_effects",
    "lint_source",
    "lint_file",
    "lint_class",
    "lint_graph_filters",
    "format_text",
    "to_json",
    "to_json_dict",
    "format_rule_catalogue",
]
