"""The rule catalogue: every check an analysis pass can report.

Rule ids are stable and grouped by scope:

=========  ===============================================================
``G1xx``   graph structure (pipeline verifier)
``P2xx``   placement (pipeline verifier)
``W3xx``   writer policy / flow control (pipeline verifier)
``Z4xx``   phase synchronisation (pipeline verifier)
``E7xx``   memoisation certificate (result cache)
=========  ===============================================================

Each :class:`Rule` carries its severity and a generic fix hint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["Rule", "RULES", "rule_catalogue"]


@dataclass(frozen=True)
class Rule:
    """One statically checkable property of a pipeline."""

    id: str
    name: str
    severity: Severity
    scope: str
    summary: str
    hint: str

    def diagnostic(self, subject: str, message: str) -> Diagnostic:
        """Build one finding of this rule (severity and hint from the
        catalogue)."""
        return Diagnostic(
            rule=self.id,
            name=self.name,
            severity=self.severity,
            subject=subject,
            message=message,
            hint=self.hint,
        )


#: Rule id -> rule, in catalogue order.
RULES: dict[str, Rule] = {}


def _rule(
    id: str, name: str, severity: Severity, scope: str, summary: str, hint: str
) -> Rule:
    rule = Rule(id, name, severity, scope, summary, hint)
    if id in RULES:  # pragma: no cover - catalogue construction bug
        raise ValueError(f"duplicate rule id {id!r}")
    RULES[id] = rule
    return rule


def rule_catalogue() -> list[Rule]:
    """All rules in id order (the documented catalogue)."""
    return [RULES[key] for key in sorted(RULES)]


# -- G1xx: graph structure ---------------------------------------------------
_rule(
    "G101", "empty-graph", Severity.ERROR, "graph",
    "The graph has no filters; there is nothing to run.",
    "Add at least one source filter with add_filter(..., is_source=True).",
)
_rule(
    "G102", "cycle", Severity.ERROR, "graph",
    "The stream graph contains a cycle; end-of-work can never propagate "
    "and every copy on the cycle deadlocks waiting for upstream close.",
    "Break the cycle; filter graphs must be DAGs (route feedback through "
    "a separate unit of work instead).",
)
_rule(
    "G103", "orphan-filter", Severity.ERROR, "graph",
    "A filter has no input streams but is not declared a source, so it "
    "would close immediately without producing or consuming anything.",
    "Mark it add_filter(..., is_source=True) or connect an input stream.",
)
_rule(
    "G104", "source-with-inputs", Severity.ERROR, "graph",
    "A declared source filter has input streams; sources generate all "
    "their output from flush() and never receive buffers.",
    "Drop is_source=True or remove the incoming streams.",
)
_rule(
    "G105", "no-source", Severity.ERROR, "graph",
    "No filter is a source; no data can ever enter the pipeline.",
    "Declare at least one filter with is_source=True.",
)
_rule(
    "G106", "dangling-stream", Severity.ERROR, "graph",
    "A stream references a filter that is not in the graph (the spec "
    "tables were mutated inconsistently).",
    "Create streams with FilterGraph.connect() only; it keeps the filter "
    "and stream tables consistent.",
)
_rule(
    "G107", "unreachable-filter", Severity.WARNING, "graph",
    "A filter cannot be reached from any source; it will only ever see "
    "end-of-work markers and process no data.",
    "Connect it downstream of a source or remove it.",
)

# -- P2xx: placement ---------------------------------------------------------
_rule(
    "P201", "unplaced-filter", Severity.ERROR, "placement",
    "A graph filter has no placement; engines cannot instantiate copies.",
    "Place every filter with Placement.place()/spread().",
)
_rule(
    "P202", "unknown-filter-placed", Severity.ERROR, "placement",
    "The placement names a filter that is not in the graph.",
    "Remove the stale entry or add the filter to the graph.",
)
_rule(
    "P203", "unknown-host", Severity.ERROR, "placement",
    "A copy set is placed on a host the cluster does not have.",
    "Place copy sets only on hosts the target cluster declares.",
)
_rule(
    "P204", "multi-copy-sink", Severity.WARNING, "placement",
    "A sink filter runs more than one transparent copy; each copy "
    "produces an independent partial result and engines return them "
    "as a list, which is rarely what a merge stage intends.",
    "Place result-producing sinks as a single copy on one host.",
)

# -- W3xx: writer policy / flow control --------------------------------------
_rule(
    "W301", "wrr-degenerate", Severity.WARNING, "flow",
    "Weighted Round Robin on a stream whose consumer copy sets all run "
    "exactly one copy; the weight vector carries no information and the "
    "policy degenerates to plain Round Robin.",
    "Use RR, or give hosts different copy counts so the weights matter.",
)
_rule(
    "W302", "dd-window-exceeds-queue", Severity.WARNING, "flow",
    "A demand-driven window is larger than the bounded copy-set queue, "
    "so the window can never fill: backpressure comes from blocking "
    "queue puts *after* the routing decision (head-of-line blocking) "
    "instead of from the sliding window.",
    "Set the policy window <= the engine queue_capacity.",
)
_rule(
    "W303", "dd-ack-starvation", Severity.WARNING, "flow",
    "A demand-driven window of 1 serialises every send behind a full "
    "ack round trip; one slow acknowledgment starves the producer and "
    "throughput collapses to one buffer per RTT.",
    "Use a window >= 2 (the paper's sliding window covers ack latency).",
)

# -- Z4xx: phase synchronisation ---------------------------------------------
_rule(
    "Z401", "zbuffer-unsynced-fanin", Severity.ERROR, "phase",
    "A phase-synchronised filter (it accumulates and emits only at the "
    "end-of-work phase boundary, like the z-buffer raster/merge) sits "
    "behind a fan-in of multiple streams: its flush fires only after "
    "*every* input delivers end-of-work, so the phases of the input "
    "streams interleave in one accumulator and a lagging stream stalls "
    "the phase boundary indefinitely.",
    "Give phase-synchronised filters exactly one input stream; merge "
    "fan-in in an unsynchronised filter upstream.",
)

# -- E7xx: the memoisation certifier's refusals ------------------------------
_rule(
    "E703", "impure-memoisation", Severity.ERROR, "effects",
    "A subgraph submitted for memoisation certification contains a "
    "filter that does not declare effects='pure' (it is undeclared, "
    "stateful, I/O-bound or nondeterministic); caching its output could "
    "replay stale state.",
    "Memoise only pure subgraphs: declare add_filter(..., effects='pure') "
    "on filters whose equal inputs give equal outputs, and split the "
    "others out of the cached region.",
)
_rule(
    "E705", "non-convex-subgraph", Severity.ERROR, "effects",
    "A memoisation candidate subgraph is not convex: a path leaves the "
    "subgraph and re-enters it, so the cached region's inputs depend on "
    "its own outputs and a cache hit would starve the outside path.",
    "Memoise convex subgraphs only: include every filter on every path "
    "between members.",
)
_rule(
    "E706", "cache-over-uncertified-subgraph", Severity.ERROR, "effects",
    "A result cache is configured over a subgraph that "
    "certify_memoisable() rejects (members not declared pure, or a "
    "non-convex member set); serving memoised replies from it could "
    "return results a live run would not produce.",
    "Attach the cache to a certified subgraph (e.g. the standalone "
    "extract stage), or run the pipeline uncached.",
)
