"""Pass 4: bounded model checking of the flow-control protocol.

Builds a small finite-state model of one concrete ``(graph, placement,
writer policies, phase-sync, EOW close)`` configuration and explores it
exhaustively (bounded BFS) to prove deadlock-freedom and guaranteed
end-of-work delivery, or to produce a counterexample event trace.

**The model.**  One state machine per *copy set* (copies on a host share
one bounded queue, so the copy set is the unit the protocol sees):

- modes ``RUN -> FLUSH -> CLOSING -> DONE`` mirror the engine lifecycle
  (consume, phase-boundary flush, per-stream EOW close, exit);
- one edge per (producer copy set, consumer copy set) pair of every
  stream, carrying ``queued`` data items, the EOW ``marker`` (markers
  occupy queue slots, exactly like the in-band ``_EOW`` sentinel of the
  real engines' runtime), ``pending`` produced-but-unsent items (a blocking
  ``ctx.write``: a node with pending sends can do nothing else) and the
  ``unacked`` count of a demand-driven/rate sliding window (acked on
  consumer dequeue, as the engines do);
- sources produce up to ``max_buffers`` items; consuming a buffer
  nondeterministically forwards 0 or 1 buffers per output stream;
  phase-synchronised filters emit only in ``FLUSH``, up to
  ``flush_burst`` buffers per output.

**The bounds.**  The state space is finite because production is bounded
(``max_buffers`` per source copy set — forwarding never increases the
number of live buffers) and every counter is capped by the queue
capacity or window.  Deadlock-freedom is therefore proved *up to the
production bound*; the protocol's control structure (windows, queues,
marker fan-in) does not change with more buffers, so a wedge reachable
at all is reachable within a small bound.  ``stalled`` names copy sets
whose copies never consume (a crashed or wedged consumer) — the
configuration the close-while-busy wedge needs.

**Where it runs.**  Not at engine construction: a valid pipeline (acyclic,
every window at least 1 — both refused earlier by rules that cannot be
truncated) has never produced a wedge here, and at Table 4 scale the
search returned no verdict at all.  ``repro lint --deep`` runs it through
:func:`verify_protocol`; the exhaustive proofs of the shipped
configurations are in ``tests/analysis/test_protocol.py`` and CI; the
``stalled`` states are reached only by calling :func:`check_protocol`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.graph import FilterGraph
    from repro.core.placement import Placement
    from repro.core.policies import WriterPolicy

__all__ = [
    "ProtocolModel",
    "ProtocolResult",
    "build_model",
    "check_model",
    "check_protocol",
    "verify_protocol",
]

_RUN, _FLUSH, _CLOSING, _DONE = 0, 1, 2, 3

#: (modes, budgets, flush_remaining, queued, markers, pending, unacked)
_State = tuple[
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
]


@dataclass(frozen=True)
class _Node:
    index: int
    label: str
    is_source: bool
    phase_sync: bool
    stalled: bool
    in_edges: tuple[int, ...]
    out_edges: tuple[int, ...]


@dataclass(frozen=True)
class _Edge:
    index: int
    stream: str
    src: int
    dst: int
    #: Sliding-window size for needs-ack policies, else None.
    window: int | None


@dataclass
class ProtocolModel:
    """The finite-state model of one pipeline configuration."""

    nodes: list[_Node]
    edges: list[_Edge]
    queue_capacity: int
    max_buffers: int
    flush_burst: int

    @property
    def labels(self) -> tuple[str, ...]:
        """Copy-set labels, in node order."""
        return tuple(n.label for n in self.nodes)


@dataclass
class ProtocolResult:
    """Outcome of one bounded exploration."""

    #: True: no wedge reachable (within bounds).  False: counterexample
    #: found.  None: exploration truncated before any verdict.
    deadlock_free: bool | None
    #: Whether the reachable state space was fully explored.
    exhaustive: bool
    states_explored: int
    #: The offending event sequence (empty when deadlock_free).
    counterexample: tuple[str, ...] = ()
    #: Why each wedged copy set is stuck, for the terminal state.
    stuck: tuple[str, ...] = ()
    #: The F9xx rule id the counterexample maps to, if any.
    rule: str | None = None
    labels: tuple[str, ...] = ()


def build_model(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    stalled: Iterable[str] = (),
    window_overrides: Mapping[str, int] | None = None,
    max_buffers: int = 2,
    flush_burst: int = 1,
) -> ProtocolModel:
    """Build the protocol model of one configuration.

    Without a ``placement`` every filter is one copy set.  ``stalled``
    names copy-set labels (``filter@host``, or the bare filter name when
    unplaced) whose copies never consume.  ``window_overrides`` forces a
    sliding-window size per stream name — the hook the property tests
    use to inject degenerate (window, queue) pairs the real policy
    constructors refuse to build.
    """
    stalled_set = set(stalled)
    nodes: list[_Node] = []
    node_index: dict[str, list[int]] = {}
    in_edges: dict[int, list[int]] = {}
    out_edges: dict[int, list[int]] = {}

    def add_node(name: str, label: str, is_source: bool, phase: bool) -> int:
        index = len(nodes)
        nodes.append(
            _Node(
                index=index,
                label=label,
                is_source=is_source,
                phase_sync=phase,
                stalled=label in stalled_set,
                in_edges=(),
                out_edges=(),
            )
        )
        node_index.setdefault(name, []).append(index)
        in_edges[index] = []
        out_edges[index] = []
        return index

    for name, spec in graph.filters.items():
        is_source = spec.is_source or not spec.inputs
        if placement is not None and name in set(placement.placed_filters()):
            for cs in placement.copysets(name):
                add_node(
                    name, f"{name}@{cs.host}", is_source, spec.phase_synchronised
                )
        else:
            add_node(name, name, is_source, spec.phase_synchronised)

    edges: list[_Edge] = []
    for stream in graph.streams.values():
        if stream.src not in node_index or stream.dst not in node_index:
            continue
        window: int | None = None
        if window_overrides is not None and stream.name in window_overrides:
            window = window_overrides[stream.name]
        elif policy_for is not None:
            try:
                described = policy_for(stream.name)().describe()
            except Exception:  # pragma: no cover - user factory failure
                described = {}
            w = described.get("window")
            if isinstance(w, int) and described.get("needs_ack"):
                window = w
        for src in node_index[stream.src]:
            for dst in node_index[stream.dst]:
                index = len(edges)
                edges.append(
                    _Edge(
                        index=index,
                        stream=stream.name,
                        src=src,
                        dst=dst,
                        window=window,
                    )
                )
                out_edges[src].append(index)
                in_edges[dst].append(index)

    wired = [
        _Node(
            index=n.index,
            label=n.label,
            is_source=n.is_source,
            phase_sync=n.phase_sync,
            stalled=n.stalled,
            in_edges=tuple(in_edges[n.index]),
            out_edges=tuple(out_edges[n.index]),
        )
        for n in nodes
    ]
    return ProtocolModel(
        nodes=wired,
        edges=edges,
        queue_capacity=queue_capacity,
        max_buffers=max_buffers,
        flush_burst=flush_burst,
    )


def _initial(model: ProtocolModel) -> _State:
    n, e = len(model.nodes), len(model.edges)
    budgets = tuple(
        model.max_buffers if node.is_source and node.out_edges else 0
        for node in model.nodes
    )
    zeros_n = (0,) * n
    zeros_e = (0,) * e
    return ((_RUN,) * n, budgets, zeros_n, zeros_e, zeros_e, zeros_e, zeros_e)


def _successors(model: ProtocolModel, state: _State) -> list[tuple[str, _State]]:
    modes, budgets, flushrem, queued, markers, pending, unacked = state
    nodes, edges, capacity = model.nodes, model.edges, model.queue_capacity

    used = [0] * len(nodes)
    blocked = [False] * len(nodes)
    for edge in edges:
        used[edge.dst] += queued[edge.index] + (1 if markers[edge.index] == 1 else 0)
        if pending[edge.index] > 0:
            blocked[edge.src] = True

    out: list[tuple[str, _State]] = []

    def repl(base: tuple[int, ...], index: int, value: int) -> tuple[int, ...]:
        return base[:index] + (value,) + base[index + 1 :]

    # Send transitions: a pending buffer moves into the consumer queue
    # when a slot and (for windowed policies) a credit are available.
    for edge in edges:
        i = edge.index
        src = nodes[edge.src]
        if src.stalled or pending[i] == 0:
            continue
        if used[edge.dst] >= capacity:
            continue
        if edge.window is not None and unacked[i] >= edge.window:
            continue
        new_unacked = (
            repl(unacked, i, unacked[i] + 1) if edge.window is not None else unacked
        )
        out.append(
            (
                f"{src.label} sends a buffer on {edge.stream!r} to "
                f"{nodes[edge.dst].label}",
                (
                    modes,
                    budgets,
                    flushrem,
                    repl(queued, i, queued[i] + 1),
                    markers,
                    repl(pending, i, pending[i] - 1),
                    new_unacked,
                ),
            )
        )

    for node in nodes:
        i = node.index
        mode = modes[i]
        if node.stalled or mode == _DONE:
            continue

        if mode == _RUN:
            if not blocked[i]:
                # Sources stage new buffers while they have budget.
                if node.is_source and budgets[i] > 0:
                    for ei in node.out_edges:
                        out.append(
                            (
                                f"{node.label} produces a buffer on "
                                f"{edges[ei].stream!r}",
                                (
                                    modes,
                                    repl(budgets, i, budgets[i] - 1),
                                    flushrem,
                                    queued,
                                    markers,
                                    repl(pending, ei, pending[ei] + 1),
                                    unacked,
                                ),
                            )
                        )
                # Consume one buffer; ack its window; maybe forward.
                for ei in node.in_edges:
                    if queued[ei] == 0:
                        continue
                    new_queued = repl(queued, ei, queued[ei] - 1)
                    new_unacked = (
                        repl(unacked, ei, unacked[ei] - 1)
                        if edges[ei].window is not None and unacked[ei] > 0
                        else unacked
                    )
                    out.append(
                        (
                            f"{node.label} consumes a buffer from "
                            f"{edges[ei].stream!r}",
                            (
                                modes,
                                budgets,
                                flushrem,
                                new_queued,
                                markers,
                                pending,
                                new_unacked,
                            ),
                        )
                    )
                    if not node.phase_sync:
                        for oi in node.out_edges:
                            out.append(
                                (
                                    f"{node.label} consumes from "
                                    f"{edges[ei].stream!r} and forwards on "
                                    f"{edges[oi].stream!r}",
                                    (
                                        modes,
                                        budgets,
                                        flushrem,
                                        new_queued,
                                        markers,
                                        repl(pending, oi, pending[oi] + 1),
                                        new_unacked,
                                    ),
                                )
                            )
                # Take a queued end-of-work marker.
                for ei in node.in_edges:
                    if markers[ei] == 1:
                        out.append(
                            (
                                f"{node.label} takes end-of-work on "
                                f"{edges[ei].stream!r}",
                                (
                                    modes,
                                    budgets,
                                    flushrem,
                                    queued,
                                    repl(markers, ei, 2),
                                    pending,
                                    unacked,
                                ),
                            )
                        )
                # Reach the phase boundary: sources whenever they choose,
                # consumers once every input is closed and drained.
                ready = node.is_source or (
                    all(markers[ei] == 2 for ei in node.in_edges)
                    and all(queued[ei] == 0 for ei in node.in_edges)
                )
                if ready:
                    burst = (
                        model.flush_burst
                        if node.phase_sync and node.out_edges
                        else 0
                    )
                    out.append(
                        (
                            f"{node.label} reaches its end-of-work phase "
                            f"boundary",
                            (
                                repl(modes, i, _FLUSH),
                                budgets,
                                repl(flushrem, i, burst),
                                queued,
                                markers,
                                pending,
                                unacked,
                            ),
                        )
                    )

        elif mode == _FLUSH:
            if not blocked[i]:
                if flushrem[i] > 0:
                    for oi in node.out_edges:
                        out.append(
                            (
                                f"{node.label} flush-writes on "
                                f"{edges[oi].stream!r}",
                                (
                                    modes,
                                    budgets,
                                    repl(flushrem, i, flushrem[i] - 1),
                                    queued,
                                    markers,
                                    repl(pending, oi, pending[oi] + 1),
                                    unacked,
                                ),
                            )
                        )
                out.append(
                    (
                        f"{node.label} finishes flushing",
                        (
                            repl(modes, i, _CLOSING),
                            budgets,
                            repl(flushrem, i, 0),
                            queued,
                            markers,
                            pending,
                            unacked,
                        ),
                    )
                )

        elif mode == _CLOSING:
            unsent = [oi for oi in node.out_edges if markers[oi] == 0]
            for oi in unsent:
                if used[edges[oi].dst] < capacity:
                    out.append(
                        (
                            f"{node.label} delivers end-of-work on "
                            f"{edges[oi].stream!r}",
                            (
                                modes,
                                budgets,
                                flushrem,
                                queued,
                                repl(markers, oi, 1),
                                pending,
                                unacked,
                            ),
                        )
                    )
            if not unsent:
                out.append(
                    (
                        f"{node.label} exits",
                        (
                            repl(modes, i, _DONE),
                            budgets,
                            flushrem,
                            queued,
                            markers,
                            pending,
                            unacked,
                        ),
                    )
                )
    return out


def _classify(
    model: ProtocolModel, state: _State
) -> tuple[tuple[str, ...], str]:
    """Stuck-node descriptions and the F9xx rule of a wedged state."""
    modes, _budgets, _flushrem, queued, markers, pending, unacked = state
    nodes, edges, capacity = model.nodes, model.edges, model.queue_capacity
    used = [0] * len(nodes)
    for edge in edges:
        used[edge.dst] += queued[edge.index] + (1 if markers[edge.index] == 1 else 0)

    reasons: list[str] = []
    has_dd = False
    has_stalled = False
    for edge in edges:
        i = edge.index
        src, dst = nodes[edge.src], nodes[edge.dst]
        if pending[i] > 0:
            if edge.window is not None and unacked[i] >= edge.window:
                reasons.append(
                    f"{src.label} is blocked on {edge.stream!r}: sliding "
                    f"window full ({unacked[i]}/{edge.window} unacked, "
                    f"acks require {dst.label} to consume)"
                )
                has_dd = True
            elif used[edge.dst] >= capacity:
                reasons.append(
                    f"{src.label} is blocked on {edge.stream!r}: the queue "
                    f"of {dst.label} is full ({used[edge.dst]}/{capacity})"
                )
                if dst.stalled:
                    has_stalled = True
        if modes[edge.src] == _CLOSING and markers[i] == 0:
            why = (
                "the consumer is stalled"
                if dst.stalled
                else f"its queue is full ({used[edge.dst]}/{capacity})"
            )
            reasons.append(
                f"{src.label} cannot deliver end-of-work on "
                f"{edge.stream!r}: {why}"
            )
            if dst.stalled:
                has_stalled = True
        if markers[i] == 1 and dst.stalled:
            has_stalled = True
    for node in nodes:
        if node.stalled or modes[node.index] == _DONE:
            continue
        waiting = [
            edges[ei].stream
            for ei in node.in_edges
            if markers[ei] != 2
        ]
        if modes[node.index] == _RUN and waiting:
            reasons.append(
                f"{node.label} waits for end-of-work on "
                f"{', '.join(repr(s) for s in sorted(set(waiting)))}"
            )
    if has_dd:
        rule = "F902"
    elif has_stalled:
        rule = "F903"
    else:
        rule = "F901"
    return tuple(reasons), rule


#: Counterexample specificity: a credit wedge beats a close wedge beats
#: the generic blocking cycle when one exploration finds several classes.
_RULE_PRIORITY = ("F902", "F903", "F901")


def check_model(model: ProtocolModel, max_states: int = 200_000) -> ProtocolResult:
    """Bounded BFS over the model's reachable states.

    The search does not stop at the first wedged state: it keeps one
    (shortest) counterexample per F9xx class and reports the most
    specific one found, so a credit wedge is not shadowed by the
    shallower close-ordering wedges every cyclic graph also contains.
    """
    initial = _initial(model)
    live = [n.index for n in model.nodes if not n.stalled]
    parents: dict[_State, tuple[_State | None, str]] = {initial: (None, "")}
    frontier: deque[_State] = deque([initial])
    explored = 0
    truncated = False
    found: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    while frontier:
        state = frontier.popleft()
        explored += 1
        successors = _successors(model, state)
        if not successors:
            if all(state[0][i] == _DONE for i in live):
                continue  # clean completion
            stuck, rule = _classify(model, state)
            if rule not in found:
                # Wedged: reconstruct the event trace.
                trace: list[str] = []
                cursor: _State | None = state
                while cursor is not None:
                    prev, event = parents[cursor]
                    if event:
                        trace.append(event)
                    cursor = prev
                trace.reverse()
                found[rule] = (tuple(trace), stuck)
            if _RULE_PRIORITY[0] in found:
                truncated = True
                break
            continue
        for event, succ in successors:
            if succ not in parents:
                if len(parents) >= max_states:
                    truncated = True
                    continue
                parents[succ] = (state, event)
                frontier.append(succ)
    if found:
        rule = next(r for r in _RULE_PRIORITY if r in found)
        trace_events, stuck = found[rule]
        return ProtocolResult(
            deadlock_free=False,
            exhaustive=not truncated,
            states_explored=explored,
            counterexample=trace_events,
            stuck=stuck,
            rule=rule,
            labels=model.labels,
        )
    return ProtocolResult(
        deadlock_free=None if truncated else True,
        exhaustive=not truncated,
        states_explored=explored,
        labels=model.labels,
    )


def check_protocol(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    stalled: Iterable[str] = (),
    window_overrides: Mapping[str, int] | None = None,
    max_buffers: int = 2,
    flush_burst: int = 1,
    max_states: int = 200_000,
) -> ProtocolResult:
    """Build the model of a configuration and explore it."""
    model = build_model(
        graph,
        placement,
        policy_for,
        queue_capacity,
        stalled=stalled,
        window_overrides=window_overrides,
        max_buffers=max_buffers,
        flush_burst=flush_burst,
    )
    return check_model(model, max_states=max_states)


def _trace_hint(result: ProtocolResult, limit: int = 12) -> str:
    events = result.counterexample
    shown = events[-limit:]
    prefix = f"... {len(events) - len(shown)} earlier events; " if len(events) > limit else ""
    trace = " -> ".join(shown)
    stuck = "; ".join(result.stuck[:4])
    return f"Offending event sequence: {prefix}{trace}. Wedged: {stuck}"


def verify_protocol(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    max_states: int = 4_000,
    max_buffers: int = 1,
) -> list[Diagnostic]:
    """Run the ``F9xx`` protocol rules: ``repro lint --deep``'s wrapper.

    One bounded exploration reported as diagnostics: a reachable wedge is
    F901–F903 with its event trace, a search cut off at ``max_states``
    (``--protocol-max-states``) is F904, a complete proof is silent.  No
    engine calls this: the shallow rules they do run refuse every cycle
    and the policy constructors every window below 1, after which the
    model has never wedged (``tests/analysis/test_properties.py``).
    """
    model = build_model(
        graph,
        placement,
        policy_for,
        queue_capacity,
        max_buffers=max_buffers,
    )
    if not model.edges:
        return []
    result = check_model(model, max_states=max_states)
    out: list[Diagnostic] = []
    if result.deadlock_free is False:
        rule = result.rule or "F901"
        out.append(
            RULES[rule].diagnostic(
                "graph",
                f"protocol wedge reachable in {result.states_explored} "
                f"states: {result.stuck[0] if result.stuck else 'no progress'}",
                hint=_trace_hint(result),
            )
        )
    elif not result.exhaustive:
        out.append(
            RULES["F904"].diagnostic(
                "graph",
                f"protocol exploration truncated at {result.states_explored} "
                f"states (max_states={max_states}); no wedge found so far",
            )
        )
    return out
