"""Pass 1: the static pipeline verifier.

Checks a ``(FilterGraph, Placement, writer policies, cluster hosts)``
configuration *before* any engine instantiates a copy, and reports every
violation as a structured :class:`~repro.analysis.Diagnostic`
(TPIE-style "compile time" validation of the full pipeline graph).  The
individual passes are exposed for the thin ``validate()`` compatibility
wrappers on :class:`~repro.core.graph.FilterGraph` and
:class:`~repro.core.placement.Placement`; engines call
:func:`verify_pipeline` with ``deep=True``, which runs every rule that
reads the configuration off and can refuse it: the G/P/W/Z rules here
and effect inference.  The protocol model checker
(:mod:`repro.analysis.protocol`) *searches* a state space instead, and is
not part of this function: ``repro lint --deep`` and the tests call it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.effects import verify_effects
from repro.analysis.rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.graph import FilterGraph
    from repro.core.placement import Placement
    from repro.core.policies import WriterPolicy

__all__ = [
    "verify_graph",
    "verify_placement",
    "verify_flow",
    "verify_pipeline",
]


def verify_graph(graph: "FilterGraph") -> list[Diagnostic]:
    """Run the ``G1xx`` graph-structure rules."""
    out: list[Diagnostic] = []
    if not graph.filters:
        out.append(RULES["G101"].diagnostic("graph", "graph has no filters"))
        return out

    # G106 dangling streams (manual spec-table mutation).
    for stream in graph.streams.values():
        for endpoint in (stream.src, stream.dst):
            if endpoint not in graph.filters:
                out.append(
                    RULES["G106"].diagnostic(
                        stream.name,
                        f"stream {stream.name!r} references unknown filter "
                        f"{endpoint!r}",
                    )
                )

    cycle = graph.find_cycle()
    if cycle:
        out.append(
            RULES["G102"].diagnostic(
                "graph", f"graph has a cycle: {cycle}"
            )
        )

    for spec in graph.filters.values():
        if not spec.inputs and not spec.is_source:
            out.append(
                RULES["G103"].diagnostic(
                    spec.name,
                    f"filter {spec.name!r} has no inputs but is not marked "
                    f"is_source",
                )
            )
        if spec.is_source and spec.inputs:
            out.append(
                RULES["G104"].diagnostic(
                    spec.name,
                    f"source filter {spec.name!r} must not have inputs",
                )
            )

    sources = {
        spec.name
        for spec in graph.filters.values()
        if spec.is_source and not spec.inputs
    }
    if not sources:
        out.append(
            RULES["G105"].diagnostic(
                "graph",
                "graph has no source filter; no data can enter the pipeline",
            )
        )
    else:
        reachable = set(sources)
        for name in sources:
            reachable |= graph.downstream_of(name)
        for name in graph.filters:
            if name not in reachable:
                out.append(
                    RULES["G107"].diagnostic(
                        name,
                        f"filter {name!r} is unreachable from every source",
                    )
                )

    # Z402 tile maps must be valid owner-assigned partitions.
    for spec in graph.filters.values():
        tile_map = getattr(spec, "tile_map", None)
        if tile_map is None:
            continue
        for problem in tile_map.problems():
            out.append(
                RULES["Z402"].diagnostic(
                    spec.name,
                    f"filter {spec.name!r} tile map: {problem}",
                )
            )

    seen_pairs: dict[tuple[str, str], int] = {}
    for stream in graph.streams.values():
        pair = (stream.src, stream.dst)
        seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
    for (src, dst), count in sorted(seen_pairs.items()):
        if count > 1:
            out.append(
                RULES["G108"].diagnostic(
                    f"{src}->{dst}",
                    f"filters {src!r} and {dst!r} are connected by {count} "
                    f"parallel streams",
                )
            )
    return out


def verify_placement(
    graph: "FilterGraph",
    placement: "Placement",
    known_hosts: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the ``P2xx`` placement rules.

    ``known_hosts`` is the cluster's host set; when ``None`` the host
    check (P203) is skipped — the real engines treat host names as labels
    and accept any.
    """
    out: list[Diagnostic] = []
    known = None if known_hosts is None else set(known_hosts)
    placed = {name: placement.copysets(name) for name in placement.placed_filters()}

    for name in graph.filters:
        if name not in placed:
            out.append(
                RULES["P201"].diagnostic(
                    name, f"filter {name!r} has no placement"
                )
            )
    for name, copysets in placed.items():
        if name not in graph.filters:
            out.append(
                RULES["P202"].diagnostic(
                    name, f"placed filter {name!r} is not in the graph"
                )
            )
        hosts_seen: set[str] = set()
        for cs in copysets:
            if known is not None and cs.host not in known:
                out.append(
                    RULES["P203"].diagnostic(
                        name,
                        f"filter {name!r} placed on unknown host {cs.host!r}",
                    )
                )
            if cs.host in hosts_seen:
                out.append(
                    RULES["P205"].diagnostic(
                        name,
                        f"filter {name!r} has multiple copy sets on host "
                        f"{cs.host!r}",
                    )
                )
            hosts_seen.add(cs.host)
            if cs.copies < 1:
                out.append(
                    RULES["P206"].diagnostic(
                        name,
                        f"filter {name!r} copy set on {cs.host!r} declares "
                        f"{cs.copies} copies",
                    )
                )
    # Z403 tile-mapped filters need one single-copy set per owner, in
    # owner order (the tile->owner mapping indexes copy sets positionally).
    for spec in graph.filters.values():
        tile_map = getattr(spec, "tile_map", None)
        if tile_map is None or spec.name not in placed:
            continue
        copysets = placed[spec.name]
        owners = tile_map.n_owners
        if len(copysets) != owners:
            out.append(
                RULES["Z403"].diagnostic(
                    spec.name,
                    f"filter {spec.name!r} tile map names {owners} owners "
                    f"but the placement has {len(copysets)} copy sets",
                )
            )
        for cs in copysets:
            if cs.copies != 1:
                out.append(
                    RULES["Z403"].diagnostic(
                        spec.name,
                        f"filter {spec.name!r} copy set on {cs.host!r} runs "
                        f"{cs.copies} copies; tile owners must be single "
                        f"copies (copies on one host share a queue, so the "
                        f"tile->owner mapping cannot address them)",
                    )
                )
    for spec in graph.filters.values():
        if spec.outputs or spec.name not in placed:
            continue
        total = sum(cs.copies for cs in placed[spec.name])
        if total > 1:
            out.append(
                RULES["P204"].diagnostic(
                    spec.name,
                    f"sink filter {spec.name!r} runs {total} transparent "
                    f"copies; engines return one independent result per copy",
                )
            )
    return out


def verify_flow(
    graph: "FilterGraph",
    placement: "Placement",
    policy_for: "Callable[[str], Callable[[], WriterPolicy]]",
    queue_capacity: int,
) -> list[Diagnostic]:
    """Run the ``W3xx`` flow-control and ``Z4xx`` phase rules.

    ``policy_for`` maps a stream name to its policy *factory* (exactly
    what the engines hold); one probe instance is built per stream to
    introspect its window, never bound or used for routing.
    """
    out: list[Diagnostic] = []
    placed = set(placement.placed_filters())
    for stream in graph.streams.values():
        if stream.dst not in placed or stream.dst not in graph.filters:
            continue
        copysets = placement.copysets(stream.dst)
        try:
            policy = policy_for(stream.name)()
        except Exception:  # pragma: no cover - user factory failure
            continue
        described = policy.describe()
        window = described.get("window")
        if (
            described.get("name") == "WeightedRoundRobin"
            and copysets
            and all(cs.copies == 1 for cs in copysets)
        ):
            out.append(
                RULES["W301"].diagnostic(
                    stream.name,
                    f"WRR on stream {stream.name!r}: every consumer copy set "
                    f"runs 1 copy, so weighted cycling degenerates to RR",
                )
            )
        # Z404/Z405 content routing and tile partitioning come in pairs.
        dst_spec = graph.filters[stream.dst]
        content_routed = bool(described.get("content_routed"))
        dst_tile_map = getattr(dst_spec, "tile_map", None)
        if dst_tile_map is not None and not content_routed:
            out.append(
                RULES["Z404"].diagnostic(
                    stream.name,
                    f"stream {stream.name!r}: consumer {stream.dst!r} is "
                    f"tile-mapped but policy "
                    f"{described.get('name', '?')} is not content-routed; "
                    f"merge copies would receive tiles they do not own",
                )
            )
        if content_routed and dst_tile_map is None:
            out.append(
                RULES["Z404"].diagnostic(
                    stream.name,
                    f"stream {stream.name!r}: policy "
                    f"{described.get('name', '?')} routes by content but "
                    f"consumer {stream.dst!r} declares no tile_map",
                )
            )
        if content_routed and not dst_spec.phase_synchronised:
            out.append(
                RULES["Z405"].diagnostic(
                    stream.name,
                    f"stream {stream.name!r}: content-routed policy feeds "
                    f"{stream.dst!r}, which is not phase-synchronised and "
                    f"may stream torn per-tile state downstream",
                )
            )
        if isinstance(window, int):
            if window > queue_capacity:
                out.append(
                    RULES["W302"].diagnostic(
                        stream.name,
                        f"stream {stream.name!r}: policy window {window} "
                        f"exceeds queue_capacity {queue_capacity}; the "
                        f"sliding window can never fill",
                    )
                )
            if window < 2 and len(copysets) >= 1:
                out.append(
                    RULES["W303"].diagnostic(
                        stream.name,
                        f"stream {stream.name!r}: window {window} serialises "
                        f"every send behind one ack round trip",
                    )
                )
    for spec in graph.filters.values():
        if spec.phase_synchronised and len(spec.inputs) > 1:
            out.append(
                RULES["Z401"].diagnostic(
                    spec.name,
                    f"phase-synchronised filter {spec.name!r} has "
                    f"{len(spec.inputs)} input streams (unsynchronised "
                    f"fan-in); its phase boundary waits on every stream's "
                    f"end-of-work",
                )
            )
    return out


def verify_pipeline(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    known_hosts: Iterable[str] | None = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    deep: bool = False,
) -> DiagnosticReport:
    """Run every applicable pipeline rule and return the full report.

    ``graph`` rules always run; placement and flow rules need a
    ``placement`` (and flow rules a ``policy_for`` resolver).  Nothing
    raises — gate on :meth:`DiagnosticReport.raise_errors` /
    :attr:`DiagnosticReport.errors`.

    With ``deep=True`` effect/purity inference (``E7xx``) runs as well —
    what every engine runs at construction.
    """
    report = DiagnosticReport()
    report.extend(verify_graph(graph))
    if placement is not None:
        report.extend(verify_placement(graph, placement, known_hosts))
        if policy_for is not None:
            report.extend(
                verify_flow(graph, placement, policy_for, queue_capacity)
            )
    if deep:
        report.extend(verify_effects(graph))
    report.sort()
    return report
