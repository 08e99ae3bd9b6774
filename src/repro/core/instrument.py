"""Run instrumentation: the counters behind every table in the paper.

Engines populate a :class:`RunMetrics` while executing a unit of work:

- per-stream totals (buffers and bytes) -> Table 1;
- per-filter busy time -> Table 2;
- per-copy received-buffer counts, grouped by host or node class -> Table 3;
- wall-clock makespan -> Tables 4-5, Figures 4, 5, 7.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import MetricsError

__all__ = ["DEFAULT_ACK_BYTES", "StreamStats", "CopyStats", "RunMetrics"]

#: Wire size of a demand-driven acknowledgment message; shared by both
#: engines so DD overhead accounting is comparable across backends.
DEFAULT_ACK_BYTES = 64


@dataclass
class StreamStats:
    """Traffic on one logical stream."""

    buffers: int = 0
    bytes: int = 0
    #: (src_host, dst_host) -> buffer count
    by_route: dict[tuple[str, str], int] = field(default_factory=dict)
    #: dst_host -> buffer count
    by_dst_host: dict[str, int] = field(default_factory=dict)

    def record(
        self, src_host: str, dst_host: str, nbytes: int, buffers: int = 1
    ) -> None:
        """Account ``buffers`` buffers (``nbytes`` in all) on one route."""
        self.buffers += buffers
        self.bytes += nbytes
        route = (src_host, dst_host)
        self.by_route[route] = self.by_route.get(route, 0) + buffers
        self.by_dst_host[dst_host] = self.by_dst_host.get(dst_host, 0) + buffers


@dataclass
class CopyStats:
    """Activity of one transparent copy."""

    filter_name: str
    host: str
    copy_index: int
    buffers_in: int = 0
    buffers_out: int = 0
    busy_time: float = 0.0
    io_time: float = 0.0
    finished_at: float = 0.0


class RunMetrics:
    """All measurements from one engine run (one unit of work)."""

    def __init__(self) -> None:
        self.streams: dict[str, StreamStats] = defaultdict(StreamStats)
        self.copies: list[CopyStats] = []
        self.makespan: float = 0.0
        self.result: Any = None
        #: total acknowledgment messages sent (DD overhead accounting)
        self.ack_messages: int = 0
        self.ack_bytes: int = 0
        #: per-message ack wire size the engine used (0 = engine never set it)
        self.ack_nbytes: int = 0

    # -- registration ----------------------------------------------------------
    def new_copy(self, filter_name: str, host: str, copy_index: int) -> CopyStats:
        """Create and register a per-copy stats record."""
        stats = CopyStats(filter_name, host, copy_index)
        self.copies.append(stats)
        return stats

    # -- aggregate queries -----------------------------------------------------
    def filter_busy_time(self, filter_name: str) -> float:
        """Total CPU busy time across all copies of one filter."""
        return sum(c.busy_time for c in self.copies if c.filter_name == filter_name)

    def filter_io_time(self, filter_name: str) -> float:
        """Total disk time across all copies of one filter."""
        return sum(c.io_time for c in self.copies if c.filter_name == filter_name)

    def filter_buffers_in(self, filter_name: str) -> int:
        """Total buffers consumed by all copies of one filter."""
        return sum(c.buffers_in for c in self.copies if c.filter_name == filter_name)

    def stream_totals(self, stream: str) -> tuple[int, int]:
        """(buffers, bytes) carried by one logical stream."""
        stats = self.streams.get(stream)
        if stats is None:
            return (0, 0)
        return (stats.buffers, stats.bytes)

    def buffers_per_copy_by_class(
        self, filter_name: str, host_class: dict[str, str]
    ) -> dict[str, float]:
        """Average buffers received per copy, grouped by node class.

        ``host_class`` maps host name -> class label (e.g. ``"rogue"`` /
        ``"blue"``).  This is the Table 3 statistic.
        """
        received: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        for copy in self.copies:
            if copy.filter_name != filter_name:
                continue
            cls = host_class.get(copy.host, copy.host)
            received[cls] += copy.buffers_in
            count[cls] += 1
        return {cls: received[cls] / count[cls] for cls in count}

    def summary(self) -> dict[str, Any]:
        """A compact dictionary view (used by reports and tests)."""
        return {
            "makespan": self.makespan,
            "streams": {
                name: (s.buffers, s.bytes) for name, s in self.streams.items()
            },
            "filters": sorted({c.filter_name for c in self.copies}),
            "ack_messages": self.ack_messages,
            "ack_bytes": self.ack_bytes,
        }

    # -- consistency -----------------------------------------------------------
    def validate(self, graph: Any = None) -> "RunMetrics":
        """Cross-check counter conservation; raise :class:`MetricsError` if
        the run's books don't balance.

        Checks (all engine-agnostic):

        - every buffer recorded on a stream was sent by exactly one copy and
          consumed by exactly one copy (``sum(buffers_out) == stream buffers
          == sum(buffers_in)``);
        - ack conservation: ``ack_bytes == ack_messages * ack_nbytes`` (a
          policy that acknowledges messages must account their bytes), and
          at most one ack per delivered buffer;
        - no negative times; a run that moved buffers has a positive
          makespan and at least one positive per-copy finish time.

        With ``graph`` (a :class:`repro.core.graph.FilterGraph`) the stream
        totals are additionally checked per filter: the buffers carried by a
        filter's input streams must equal the buffers its copies consumed.

        Returns ``self`` so call sites can chain
        ``engine.run().validate(graph)``.
        """
        problems: list[str] = []
        stream_buffers = sum(s.buffers for s in self.streams.values())
        total_out = sum(c.buffers_out for c in self.copies)
        total_in = sum(c.buffers_in for c in self.copies)
        if total_out != stream_buffers:
            problems.append(
                f"buffers_out total {total_out} != stream buffer total "
                f"{stream_buffers}"
            )
        if total_in != stream_buffers:
            problems.append(
                f"buffers_in total {total_in} != stream buffer total "
                f"{stream_buffers} (delivered buffers must be consumed "
                f"exactly once)"
            )
        if self.ack_nbytes:
            expected_ack_bytes = self.ack_messages * self.ack_nbytes
            if self.ack_bytes != expected_ack_bytes:
                problems.append(
                    f"ack_bytes {self.ack_bytes} != ack_messages "
                    f"{self.ack_messages} * ack_nbytes {self.ack_nbytes}"
                )
        elif self.ack_messages and not self.ack_bytes:
            problems.append(
                f"{self.ack_messages} ack messages counted but ack_bytes is 0"
            )
        if self.ack_messages > stream_buffers:
            problems.append(
                f"ack_messages {self.ack_messages} exceeds delivered buffers "
                f"{stream_buffers} (at most one ack per buffer)"
            )
        if self.makespan < 0:
            problems.append(f"negative makespan {self.makespan}")
        for copy in self.copies:
            label = f"{copy.filter_name}@{copy.host}#{copy.copy_index}"
            for attr in ("busy_time", "io_time", "finished_at"):
                value = getattr(copy, attr)
                if value < 0:
                    problems.append(f"{label}: negative {attr} {value}")
        if stream_buffers and self.copies:
            if all(c.finished_at == 0.0 for c in self.copies):
                problems.append(
                    "buffers moved but no copy recorded a finish time "
                    "(finished_at never set)"
                )
        if graph is not None:
            for name, spec in graph.filters.items():
                if not spec.inputs:
                    continue
                expected = sum(
                    self.streams[s.name].buffers
                    for s in spec.inputs
                    if s.name in self.streams
                )
                got = self.filter_buffers_in(name)
                if expected != got:
                    problems.append(
                        f"filter {name!r}: input streams carried {expected} "
                        f"buffers but its copies consumed {got}"
                    )
        if problems:
            raise MetricsError("; ".join(problems))
        return self
