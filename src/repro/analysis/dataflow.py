"""Deep pass 2: symbolic resource dataflow.

Propagates the static ``FilterSpec`` metadata (``output_nbytes``,
``output_buffers``, dtypes) end-to-end through a (graph, placement,
policies) configuration to compute per-edge byte figures and per-host
high-water memory bounds, and reports the ``M8xx`` rules:

``M801``  static queue + window high-water bound exceeds a host budget
``M802``  payloads sized just under the codec's shared-memory threshold
``M803``  tile-framebuffer fan-in burst overfills an owner's queue
``M804``  dtype conflicts across pass-through chains (transitive B501)

The bounds are *static worst cases*: every queue slot holds the largest
declared buffer of its copy set, every sliding window is full, and every
producer copy flushes one fragment per owned tile at the phase boundary.
They intentionally over-approximate — the point is to catch placements
that can only work if backpressure never happens.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import RULES
from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.buffer import BufferCodec
    from repro.core.graph import FilterGraph
    from repro.core.placement import Placement
    from repro.core.policies import WriterPolicy

__all__ = [
    "EdgeFlow",
    "HostLoad",
    "DataflowResult",
    "compute_dataflow",
    "verify_dataflow",
]


@dataclass(frozen=True)
class EdgeFlow:
    """Static byte/dtype figures for one logical stream."""

    stream: str
    src: str
    dst: str
    #: Declared wire size of one buffer (None when the producer spec is silent).
    nbytes: int | None
    #: Resolved payload dtype and where it came from ("declared"/"propagated").
    dtype: str | None
    dtype_origin: str
    #: nbytes x output_buffers: bytes shipped per unit of work, when declared.
    bytes_per_uow: int | None


@dataclass
class HostLoad:
    """Static high-water memory bound of one host."""

    host: str
    #: Bound of bytes parked in bounded copy-set queues (+ one decoded
    #: buffer in flight per consumer copy).
    queue_bytes: int = 0
    #: Bound of bytes pinned by full sliding windows of producers here.
    window_bytes: int = 0
    #: Subset of queue/window bytes that would travel as shared memory.
    shared_bytes: int = 0
    #: Human-readable contribution terms, for the M801 message.
    contributions: list[str] = field(default_factory=list)
    #: Streams whose size is undeclared (excluded from the bound).
    unknown_streams: list[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """The combined queue + window high-water bound."""
        return self.queue_bytes + self.window_bytes


@dataclass
class DataflowResult:
    """Everything the dataflow pass computed."""

    edges: dict[str, EdgeFlow]
    hosts: dict[str, HostLoad]
    #: (stream, resolved dtype, consumer declared dtype) conflicts found
    #: while propagating dtypes through pass-through filters.
    dtype_conflicts: list[tuple[str, str, str]] = field(default_factory=list)


def _resolved_dtypes(graph: "FilterGraph") -> dict[str, tuple[str, str]]:
    """stream name -> (dtype, origin) with pass-through propagation.

    A filter that declares *neither* dtype and has exactly one input
    stream is treated as pass-through: its outputs inherit the input's
    resolved dtype with origin ``"propagated"``.
    """
    resolved: dict[str, tuple[str, str]] = {}
    try:
        order = graph.topological_order()
    except GraphError:
        order = list(graph.filters)
    for name in order:
        spec = graph.filters[name]
        out_dtype: tuple[str, str] | None = None
        if spec.output_dtype is not None:
            out_dtype = (spec.output_dtype, "declared")
        elif (
            spec.input_dtype is None
            and len(spec.inputs) == 1
            and spec.inputs[0].name in resolved
        ):
            dtype, _ = resolved[spec.inputs[0].name]
            out_dtype = (dtype, "propagated")
        if out_dtype is not None:
            for stream in spec.outputs:
                resolved[stream.name] = out_dtype
    return resolved


def compute_dataflow(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    codec: "BufferCodec | None" = None,
) -> DataflowResult:
    """Compute per-edge flows and per-host high-water bounds."""
    dtypes = _resolved_dtypes(graph)
    edges: dict[str, EdgeFlow] = {}
    conflicts: list[tuple[str, str, str]] = []
    for stream in graph.streams.values():
        src = graph.filters.get(stream.src)
        dst = graph.filters.get(stream.dst)
        if src is None or dst is None:
            continue
        dtype, origin = dtypes.get(stream.name, (None, ""))
        nbytes = src.output_nbytes
        per_uow = (
            nbytes * src.output_buffers
            if nbytes is not None and src.output_buffers is not None
            else None
        )
        edges[stream.name] = EdgeFlow(
            stream=stream.name,
            src=stream.src,
            dst=stream.dst,
            nbytes=nbytes,
            dtype=dtype,
            dtype_origin=origin,
            bytes_per_uow=per_uow,
        )
        if (
            origin == "propagated"
            and dtype is not None
            and dst.input_dtype is not None
            and dst.input_dtype != dtype
        ):
            conflicts.append((stream.name, dtype, dst.input_dtype))

    hosts: dict[str, HostLoad] = {}
    if placement is not None:
        placed = set(placement.placed_filters())

        def load(host: str) -> HostLoad:
            if host not in hosts:
                hosts[host] = HostLoad(host)
            return hosts[host]

        threshold = codec.shm_threshold if codec is not None else None
        for name, spec in graph.filters.items():
            if name not in placed:
                continue
            copysets = placement.copysets(name)
            # Consumer side: each copy set owns one bounded queue whose
            # slots may all hold the largest inbound buffer, plus one
            # decoded buffer in flight per copy.
            in_sizes = [
                edges[s.name].nbytes
                for s in spec.inputs
                if s.name in edges and edges[s.name].nbytes is not None
            ]
            unknown_in = [
                s.name
                for s in spec.inputs
                if s.name not in edges or edges[s.name].nbytes is None
            ]
            biggest = max((n for n in in_sizes if n is not None), default=0)
            for cs in copysets:
                entry = load(cs.host)
                if biggest:
                    amount = biggest * (queue_capacity + cs.copies)
                    entry.queue_bytes += amount
                    entry.contributions.append(
                        f"{name}@{cs.host}: queue {queue_capacity}+{cs.copies} "
                        f"x {biggest} B"
                    )
                    if threshold is not None and biggest >= threshold:
                        entry.shared_bytes += amount
                entry.unknown_streams.extend(unknown_in)
            # Producer side: full sliding windows pin sent-but-unacked
            # buffers per copy; unwindowed policies pin one in-flight
            # buffer per copy.
            for stream in spec.outputs:
                flow = edges.get(stream.name)
                if flow is None or flow.nbytes is None:
                    for cs in copysets:
                        load(cs.host).unknown_streams.append(stream.name)
                    continue
                window = 1
                if policy_for is not None:
                    try:
                        described = policy_for(stream.name)().describe()
                    except Exception:  # pragma: no cover - user factory failure
                        described = {}
                    w = described.get("window")
                    if isinstance(w, int) and described.get("needs_ack"):
                        window = max(w, 1)
                for cs in copysets:
                    entry = load(cs.host)
                    amount = flow.nbytes * window * cs.copies
                    entry.window_bytes += amount
                    entry.contributions.append(
                        f"{name}@{cs.host}: window {window} x {cs.copies} "
                        f"copies x {flow.nbytes} B on {stream.name!r}"
                    )
                    if threshold is not None and flow.nbytes >= threshold:
                        entry.shared_bytes += amount
    return DataflowResult(edges=edges, hosts=hosts, dtype_conflicts=conflicts)


def verify_dataflow(
    graph: "FilterGraph",
    placement: "Placement | None" = None,
    policy_for: "Callable[[str], Callable[[], WriterPolicy]] | None" = None,
    queue_capacity: int = 8,
    codec: "BufferCodec | None" = None,
    host_memory: Mapping[str, int] | None = None,
) -> list[Diagnostic]:
    """Run the ``M8xx`` symbolic-dataflow rules."""
    out: list[Diagnostic] = []
    result = compute_dataflow(graph, placement, policy_for, queue_capacity, codec)

    # M801: high-water bound vs declared host budget.
    if host_memory is not None:
        for host, entry in sorted(result.hosts.items()):
            budget = host_memory.get(host)
            if budget is None or entry.total_bytes <= budget:
                continue
            detail = "; ".join(entry.contributions[:4])
            suffix = (
                f" (bound excludes {len(set(entry.unknown_streams))} "
                f"undeclared-size streams)"
                if entry.unknown_streams
                else ""
            )
            out.append(
                RULES["M801"].diagnostic(
                    host,
                    f"host {host!r}: static high-water bound "
                    f"{entry.total_bytes} B exceeds its {budget} B budget "
                    f"({detail}){suffix}",
                )
            )

    # M802: payloads just under the shared-memory threshold pickle inline.
    if codec is not None and codec.use_shared_memory:
        for stream_name, flow in sorted(result.edges.items()):
            if flow.nbytes is None:
                continue
            if codec.shm_threshold // 2 <= flow.nbytes < codec.shm_threshold:
                out.append(
                    RULES["M802"].diagnostic(
                        stream_name,
                        f"stream {stream_name!r}: declared {flow.nbytes} B "
                        f"buffers fall just below the codec's "
                        f"{codec.shm_threshold} B shared-memory threshold; "
                        f"near-slab payloads pickle inline through the "
                        f"bounded control queue",
                    )
                )

    # M803: phase-boundary fan-in burst at a tile-mapped merge.
    if placement is not None:
        placed = set(placement.placed_filters())
        for name, spec in graph.filters.items():
            tile_map = spec.tile_map
            if tile_map is None or name not in placed:
                continue
            try:
                owners = int(tile_map.n_owners)
                tiles_per_owner = [
                    len(tile_map.tiles_of_owner(o)) for o in range(owners)
                ]
            except Exception:  # pragma: no cover - Z402 covers broken maps
                continue
            if not tiles_per_owner:
                continue
            producers = 0
            nbytes: int | None = 0
            for stream in spec.inputs:
                if stream.src not in placed:
                    continue
                producers += sum(
                    cs.copies for cs in placement.copysets(stream.src)
                )
                flow = result.edges.get(stream.name)
                if nbytes is not None and flow is not None and flow.nbytes:
                    nbytes += flow.nbytes
                else:
                    nbytes = None
            if producers == 0:
                continue
            worst_tiles = max(tiles_per_owner)
            burst = producers * worst_tiles
            if burst > queue_capacity:
                byte_note = (
                    f" (~{producers * (nbytes or 0)} B per owner queue)"
                    if nbytes
                    else ""
                )
                out.append(
                    RULES["M803"].diagnostic(
                        name,
                        f"tile merge {name!r}: at the phase boundary "
                        f"{producers} producer copies x {worst_tiles} tiles "
                        f"on the busiest owner = {burst} fragments, but its "
                        f"queue holds {queue_capacity}{byte_note}; producers "
                        f"serialise on blocking puts at the merge barrier",
                    )
                )

    # M804: transitive dtype conflicts found during propagation.
    for stream_name, dtype, expected in result.dtype_conflicts:
        out.append(
            RULES["M804"].diagnostic(
                stream_name,
                f"stream {stream_name!r}: dtype {dtype!r} propagated from "
                f"upstream declarations, but the consumer declares "
                f"input_dtype {expected!r}",
            )
        )
    return out
