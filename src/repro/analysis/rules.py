"""The rule catalogue: every check an analysis pass can report.

Rule ids are stable and grouped by scope:

=========  ===============================================================
``G1xx``   graph structure (pipeline verifier)
``P2xx``   placement (pipeline verifier)
``W3xx``   writer policy / flow control (pipeline verifier)
``Z4xx``   phase synchronisation (pipeline verifier)
``C6xx``   filter code (AST lint)
``E7xx``   filter effects / purity (pass 3)
``F9xx``   flow-control protocol model checking (pass 4)
=========  ===============================================================

Each :class:`Rule` carries a default severity and a generic fix hint; a
pass may override either per finding (e.g. ``C604`` unpicklable state is
promoted to ERROR when the pipeline targets the process engine).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["Rule", "RULES", "rule_catalogue"]


@dataclass(frozen=True)
class Rule:
    """One statically checkable property of a pipeline or its filter code."""

    id: str
    name: str
    severity: Severity
    scope: str
    summary: str
    hint: str

    def diagnostic(
        self,
        subject: str,
        message: str,
        hint: str | None = None,
        severity: Severity | None = None,
        location: str = "",
    ) -> Diagnostic:
        """Build one finding of this rule (defaults from the catalogue)."""
        return Diagnostic(
            rule=self.id,
            name=self.name,
            severity=self.severity if severity is None else severity,
            subject=subject,
            message=message,
            hint=self.hint if hint is None else hint,
            location=location,
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
_rule(
    "G108", "parallel-streams", Severity.INFO, "graph",
    "Two filters are connected by more than one parallel stream; each "
    "stream gets its own writer and policy instance.",
    "Intentional fan-out aside, merge parallel streams into one and "
    "multiplex on buffer tags.",
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
    "produces an independent partial result and engines return them as "
    "a list, which is rarely what a merge stage intends.",
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

_rule(
    "Z402", "tile-map-invalid", Severity.ERROR, "tile",
    "A filter declares a tile map that does not partition its viewport: "
    "tiles leave pixels uncovered, overlap each other, fall outside the "
    "viewport, or name owners inconsistently, so tile-routed fragments "
    "are lost or double-merged.",
    "Build tile maps with TileMap.rows()/grid(), or fix the hand-built "
    "map until TileMap.problems() is empty.",
)
_rule(
    "Z403", "tile-fanin-mismatch", Severity.ERROR, "tile",
    "A tile-mapped merge filter's placement does not match its tile "
    "map's owner count: the tile->owner mapping indexes merge copies in "
    "placement order, so a missing copy silently drops its tiles and a "
    "multi-copy set makes owner indices ambiguous (copies on one host "
    "share a single queue).",
    "Place exactly tile_map.n_owners copy sets of one copy each, on "
    "distinct host labels, in owner order.",
)
_rule(
    "Z404", "tile-routing-mismatch", Severity.ERROR, "tile",
    "Tile partitioning and content routing must come in pairs: a "
    "tile-mapped consumer behind a capacity-based policy (RR/WRR/DD) "
    "receives tiles it does not own, and a content-routed policy into "
    "an unmapped consumer has no tile_owner tags to route on.",
    "Pair TileRouted streams with tile-mapped consumers: set the "
    "stream's policy to TILE and give the consumer spec its tile_map "
    "(or drop both).",
)
_rule(
    "Z405", "content-routed-unsynced", Severity.WARNING, "tile",
    "A content-routed policy feeds a consumer that is not "
    "phase-synchronised: the consumer streams partial per-tile state "
    "downstream before every producer has delivered its fragments for "
    "the tile, so downstream observes torn tiles.",
    "Mark the tile-merge consumer phase_synchronised=True so it emits "
    "only at the end-of-work phase boundary.",
)

# -- C6xx: filter code (AST lint) --------------------------------------------
_rule(
    "C600", "parse-error", Severity.ERROR, "code",
    "A file handed to the filter-code lint does not parse as Python.",
    "Fix the syntax error before linting.",
)
_rule(
    "C601", "payload-mutation-after-send", Severity.ERROR, "code",
    "A callback mutates an object after passing it to ctx.write(); the "
    "threaded engine shares payloads by reference and the process "
    "engine may still be serialising them, so the consumer races the "
    "mutation.",
    "Treat buffers as frozen once written; build a new buffer instead.",
)
_rule(
    "C602", "missing-eow-propagation", Severity.WARNING, "code",
    "A filter overrides handle() but never writes downstream and "
    "exposes no result(); consumers would only ever receive its "
    "end-of-work marker.",
    "Call ctx.write(...) from handle()/flush(), or expose result() if "
    "the filter is a sink.",
)
_rule(
    "C603", "blocking-call-in-callback", Severity.WARNING, "code",
    "The per-buffer handle() callback makes a blocking call (sleep, "
    "file or network I/O); it stalls the whole copy and, through "
    "backpressure, the upstream pipeline.",
    "Do I/O in a source filter's flush() or move it off the hot path.",
)
_rule(
    "C604", "unpicklable-state", Severity.WARNING, "code",
    "A filter stores unpicklable state (lambdas, locks, open handles) "
    "on self; such filters cannot cross the process engine's fork/"
    "pickle boundary and break run_cycles result collection.",
    "Keep filter state picklable: named functions, plain data, and "
    "handles opened inside the callback that uses them.",
)
_rule(
    "C605", "stale-cycle-state", Severity.WARNING, "code",
    "A filter accumulates into attributes on self from handle()/flush() "
    "but never resets them in init(); filter instances are reused across "
    "cycles by run_cycles and across queries by warm pools, so the "
    "accumulator carries data from the previous unit of work into the "
    "next.",
    "Reset every accumulator in init() — it runs once per cycle, before "
    "the first buffer; __init__ runs only once per copy lifetime.",
)
_rule(
    "C606", "route-ignores-tile-owner", Severity.WARNING, "code",
    "A content-routed writer policy overrides route() without ever "
    "reading its tags argument; every tile-tagged buffer is routed "
    "blindly, so merge copies receive tiles they do not own (the "
    "code-level twin of the graph-level Z404 mismatch).",
    "Route on tags['tile_owner'] inside route(), or subclass a "
    "capacity-based policy instead of a content-routed one.",
)

# -- E7xx: filter effects / purity (pass 3) ----------------------------------
_rule(
    "E701", "declared-effect-mismatch", Severity.WARNING, "effects",
    "A filter's declared effects class is weaker than what its code "
    "infers (e.g. declared pure, but the class writes self attributes "
    "or does I/O); memoisation and replay decisions based on the "
    "declaration would be unsound.",
    "Fix the declaration on add_filter(..., effects=...) or make the "
    "filter match it.",
)
_rule(
    "E702", "nondeterministic-filter", Severity.WARNING, "effects",
    "A filter draws on nondeterministic inputs (random, time, uuid); "
    "replaying or rebinding the pipeline cannot reproduce its output "
    "and cached results are unverifiable.",
    "Seed the randomness from the unit-of-work descriptor, or declare "
    "effects='nondeterministic' so caching layers skip the filter.",
)
_rule(
    "E703", "impure-memoisation", Severity.ERROR, "effects",
    "A subgraph submitted for memoisation certification contains a "
    "filter that is not pure (stateful, I/O-bound or nondeterministic); "
    "caching its output would replay stale state.",
    "Memoise only pure subgraphs; split the impure filter out of the "
    "cached region.",
)
_rule(
    "E704", "unknown-effect", Severity.WARNING, "effects",
    "A filter in a memoisation candidate has no declared effects and "
    "its factory cannot be resolved to a class for inference; the "
    "certifier must assume the worst.",
    "Declare add_filter(..., effects=...) or use a class (or a lambda "
    "closing over one) as the factory so the inferencer can see it.",
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
    "certify_memoisable() rejects (impure or unknown-effect members, or "
    "a non-convex member set); serving memoised replies from it could "
    "return results a live run would not produce.",
    "Attach the cache to a certified subgraph (e.g. the standalone "
    "extract stage), or run the pipeline uncached.",
)

# -- F9xx: flow-control protocol model checking (pass 4) ---------------------
_rule(
    "F901", "protocol-deadlock", Severity.ERROR, "protocol",
    "Bounded exploration of the credit/ack/close protocol reached a "
    "state where no copy set can make progress: a cycle of blocking "
    "sends and unconsumed queues wedges the pipeline before end-of-work "
    "can propagate.",
    "Break the blocking cycle shown in the event trace (reorder the "
    "graph, raise queue capacity, or unblock the stalled consumer).",
)
_rule(
    "F902", "dd-credit-deadlock", Severity.ERROR, "protocol",
    "A demand-driven sliding window wedges: a producer "
    "sits on a full window whose acks can never arrive because the "
    "consumer is itself blocked sending — a credit cycle, typically "
    "through a feedback edge into a tile-routed merge.",
    "Remove the feedback edge (filter graphs must be DAGs), or widen "
    "the window / queue so the ack cycle cannot close.",
)
_rule(
    "F903", "eow-delivery-wedge", Severity.ERROR, "protocol",
    "End-of-work delivery is not guaranteed: a producer finishes its "
    "work but can never deliver its end-of-work marker (the consumer "
    "queue stays full or the consumer never drains it), so downstream "
    "phase boundaries wait forever — the close-while-busy wedge.",
    "Ensure every consumer keeps draining until all markers arrive "
    "(crash supervision must drain or fail the queue, not abandon it).",
)
_rule(
    "F904", "state-space-truncated", Severity.INFO, "protocol",
    "The protocol model checker hit its state budget (repro lint "
    "--protocol-max-states) before exhausting the reachable state space; "
    "deadlock-freedom is verified only up to the explored bound.",
    "Re-run repro.analysis.protocol.check_protocol directly with a "
    "higher max_states for a complete proof.",
)
