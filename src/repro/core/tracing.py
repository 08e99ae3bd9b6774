"""Engine-agnostic execution tracing: one observability layer for both engines.

A :class:`Tracer` records one :class:`TraceEvent` per interesting transition
of every filter copy — buffer received, CPU charged, disk read, buffer sent,
acknowledgment returned, flush, end-of-work, writer blocked — against the
*owning engine's clock*: simulated seconds for
:class:`~repro.engines.simulated.SimulatedEngine`, wall-clock seconds since
run start for :class:`~repro.engines.threaded.ThreadedEngine`.  Both engines
emit the same event schema, so the timeline view, the per-copy utilisation
summary and the JSONL export work identically on either backend.

Event kinds (the unified schema):

==========  ================================================================
``recv``    a copy dequeued one buffer (detail: stream name)
``compute`` CPU charge span (detail: ``start`` / ``end``)
``io``      disk read span (detail: ``start`` / ``end``)
``send``    a copy routed one buffer (detail: ``stream->dst_host``)
``ack``     a DD acknowledgment returned to the producer
            (detail: round-trip latency in seconds, as text)
``flush``   end-of-stream flush span (detail: ``start`` / ``end``)
``done``    a copy finished its unit of work
``blocked`` writer stalled on full windows/queues (detail: ``start``/``end``)
``analysis`` a WARNING from the static pipeline verifier, recorded at run
            start (detail: ``rule-id: message``)
==========  ================================================================

Beyond raw events the tracer carries *queue-depth samples* (one per
enqueue/dequeue, keyed by copy-set label) so consumer backlogs are visible,
and derives blocked/idle-time accounting and DD ack-latency histograms from
the event stream.  Traces round-trip through JSONL (:meth:`Tracer.to_jsonl`
/ :meth:`Tracer.from_jsonl`) and render with the ``repro trace`` CLI.

Dropped events are never silent: past ``limit`` the tracer counts what it
discarded, and every summary/timeline/report states the truncation.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import IO, Any

__all__ = ["EVENT_KINDS", "TraceEvent", "QueueSample", "Tracer"]

#: The unified event schema both engines emit.  ``analysis`` events carry
#: WARNING-level findings of the static pipeline verifier
#: (:mod:`repro.analysis`), recorded at run start with the diagnostic's
#: subject as the copy label and ``"<rule>: <message>"`` as the detail.
#: ``cache_hit``/``cache_miss`` events are recorded by the serve layer
#: (copy label ``"cache"``) with the tier and stored size as the detail.
EVENT_KINDS = frozenset(
    {"recv", "compute", "io", "send", "ack", "flush", "done", "blocked",
     "analysis", "cache_hit", "cache_miss"}
)

#: Event kinds recorded as start/end pairs (spans).
SPAN_KINDS = frozenset({"compute", "io", "flush", "blocked"})

_JSONL_VERSION = 1


@dataclass(frozen=True)
class TraceEvent:
    """One recorded transition of one filter copy."""

    time: float
    copy: str  # "filter@host#index"
    kind: str  # one of EVENT_KINDS
    detail: str = ""


@dataclass(frozen=True)
class QueueSample:
    """Instantaneous depth of one copy-set queue."""

    time: float
    queue: str  # "filter@host"
    depth: int


class Tracer:
    """Collects :class:`TraceEvent` records during an engine run.

    Parameters
    ----------
    limit:
        Maximum retained records (events plus queue samples).  Past the
        limit new records are counted in :attr:`dropped` instead of stored,
        and every rendering surfaces the truncation.
    clock:
        Label of the time base the recording engine uses (``"sim"`` /
        ``"wall"``); engines set it on run start, exports preserve it.

    Recording is thread-safe: the threaded engine's copies append from many
    threads at once.
    """

    def __init__(self, limit: int = 1_000_000, clock: str = "") -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self.clock = clock
        self.events: list[TraceEvent] = []
        self.queue_samples: list[QueueSample] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._analysis_seen: set[tuple[str, str]] = set()

    # -- recording -------------------------------------------------------------
    def record(self, time: float, copy: str, kind: str, detail: str = "") -> None:
        """Append one event; past ``limit`` it is counted in ``dropped``."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown trace event kind {kind!r}; expected one of "
                f"{sorted(EVENT_KINDS)}"
            )
        with self._lock:
            if len(self.events) + len(self.queue_samples) >= self.limit:
                self.dropped += 1
                return
            self.events.append(TraceEvent(time, copy, kind, detail))

    def note_analysis(self, rule: str, subject: str) -> bool:
        """Claim one ``(rule, subject)`` analysis finding for this tracer.

        Returns True the first time a pair is seen and False afterwards.
        Engines re-verify graphs that the application already verified at
        construction; keying the ``analysis`` events on (rule, subject)
        keeps each finding from appearing twice in one trace.
        """
        key = (rule, subject)
        with self._lock:
            if key in self._analysis_seen:
                return False
            self._analysis_seen.add(key)
            return True

    def sample_queue(self, time: float, queue: str, depth: int) -> None:
        """Record the instantaneous depth of one copy-set queue."""
        with self._lock:
            if len(self.events) + len(self.queue_samples) >= self.limit:
                self.dropped += 1
                return
            self.queue_samples.append(QueueSample(time, queue, depth))

    # -- queries ---------------------------------------------------------------
    def for_copy(self, copy: str) -> list[TraceEvent]:
        """Events of one copy, in time order."""
        return sorted(
            (e for e in self.events if e.copy == copy), key=lambda e: e.time
        )

    def copies(self) -> list[str]:
        """All copy labels seen, sorted."""
        return sorted({e.copy for e in self.events})

    def counts(self) -> dict[str, int]:
        """Event-kind histogram."""
        return dict(Counter(e.kind for e in self.events))

    def spans(self, copy: str, kind: str) -> list[tuple[float, float]]:
        """(start, end) spans of one paired kind for one copy."""
        if kind not in SPAN_KINDS:
            raise ValueError(f"{kind!r} events are not recorded as spans")
        out = []
        start = None
        for event in self.for_copy(copy):
            if event.kind != kind:
                continue
            if event.detail == "start":
                start = event.time
            elif event.detail == "end" and start is not None:
                out.append((start, event.time))
                start = None
        return out

    def busy_spans(self, copy: str) -> list[tuple[float, float]]:
        """(start, end) spans of CPU work for one copy."""
        return self.spans(copy, "compute")

    def blocked_spans(self, copy: str) -> list[tuple[float, float]]:
        """(start, end) spans in which one copy's writer was stalled."""
        return self.spans(copy, "blocked")

    def blocked_time(self, copy: str) -> float:
        """Total time one copy spent stalled on full windows/queues."""
        return sum(end - start for start, end in self.blocked_spans(copy))

    def ack_latencies(self, copy: str | None = None) -> list[float]:
        """Send-to-acknowledgment round-trip latencies (seconds).

        ``ack`` events carry the latency the engine measured in their
        detail field; events with a non-numeric detail are skipped.
        """
        out = []
        for event in self.events:
            if event.kind != "ack":
                continue
            if copy is not None and event.copy != copy:
                continue
            try:
                out.append(float(event.detail))
            except ValueError:
                continue
        return out

    def ack_latency_histogram(
        self, bins: int = 8
    ) -> list[tuple[float, float, int]]:
        """(lo, hi, count) buckets over all measured ack latencies."""
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        latencies = self.ack_latencies()
        if not latencies:
            return []
        lo, hi = min(latencies), max(latencies)
        width = max((hi - lo) / bins, 1e-12)
        counts = [0] * bins
        for value in latencies:
            counts[min(int((value - lo) / width), bins - 1)] += 1
        return [
            (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
        ]

    def queue_depth_stats(self) -> dict[str, dict[str, float]]:
        """Per-queue ``{"samples", "min", "mean", "max"}`` over all samples."""
        depths: dict[str, list[int]] = defaultdict(list)
        for sample in self.queue_samples:
            depths[sample.queue].append(sample.depth)
        return {
            queue: {
                "samples": len(values),
                "min": float(min(values)),
                "mean": sum(values) / len(values),
                "max": float(max(values)),
            }
            for queue, values in sorted(depths.items())
        }

    def utilisation(self) -> dict[str, dict[str, float]]:
        """Per-copy time accounting derived from the event stream.

        For every copy: ``span`` (first to last event), ``busy`` (compute +
        flush), ``io``, ``blocked``, and ``idle`` (span minus the rest,
        clamped at zero — time waiting on input queues).
        """
        out: dict[str, dict[str, float]] = {}
        for copy in self.copies():
            events = self.for_copy(copy)
            span = events[-1].time - events[0].time
            busy = sum(e - s for s, e in self.spans(copy, "compute"))
            busy += sum(e - s for s, e in self.spans(copy, "flush"))
            io = sum(e - s for s, e in self.spans(copy, "io"))
            blocked = self.blocked_time(copy)
            out[copy] = {
                "span": span,
                "busy": busy,
                "io": io,
                "blocked": blocked,
                "idle": max(span - busy - io - blocked, 0.0),
            }
        return out

    def stage_busy(self) -> dict[str, float]:
        """Total busy seconds (compute + flush) per *stage*.

        A stage is the filter name — the copy label before the ``@``
        (``"Ra@h0#1"`` belongs to stage ``"Ra"``); all copies of one
        filter sum into one entry.  This is the per-stage breakdown the
        benchmark reporter records, and on a single-core testbed the
        denominator for busy-time throughput (wall time measures scheduler
        interleaving, not stage cost).
        """
        out: dict[str, float] = defaultdict(float)
        for copy in self.copies():
            stage = copy.split("@", 1)[0]
            out[stage] += sum(e - s for s, e in self.spans(copy, "compute"))
            out[stage] += sum(e - s for s, e in self.spans(copy, "flush"))
        return dict(sorted(out.items()))

    def summary(self) -> dict[str, Any]:
        """A compact dictionary view (used by reports and tests).

        Always includes ``dropped`` so truncated traces are never mistaken
        for complete ones.
        """
        return {
            "clock": self.clock,
            "events": len(self.events),
            "queue_samples": len(self.queue_samples),
            "dropped": self.dropped,
            "kinds": self.counts(),
            "copies": self.copies(),
        }

    # -- rendering -------------------------------------------------------------
    def timeline(self, width: int = 64) -> str:
        """A coarse per-copy activity strip.

        ``#`` = computing/flushing, ``~`` = disk I/O, ``.`` = blocked on a
        full window/queue, space = idle/waiting.  A truncated trace says so
        in the header.
        """
        if width < 1:
            raise ValueError(f"timeline width must be >= 1, got {width}")
        if not self.events:
            if self.dropped:
                return f"(no events; {self.dropped} dropped past limit)"
            return "(no events)"
        t0 = min(e.time for e in self.events)
        t1 = max(e.time for e in self.events)
        span = max(t1 - t0, 1e-12)
        copies = self.copies()
        name_w = max(len(c) for c in copies)
        header = f"trace {t0:.3f}s .. {t1:.3f}s ({len(self.events)} events)"
        if self.dropped:
            header += f" [TRUNCATED: {self.dropped} records dropped]"
        lines = [header]

        def paint(strip: list[str], start: float, end: float, mark: str) -> None:
            a = int((start - t0) / span * (width - 1))
            b = int((end - t0) / span * (width - 1))
            for i in range(a, b + 1):
                strip[i] = mark

        for copy in copies:
            strip = [" "] * width
            for start, end in self.blocked_spans(copy):
                paint(strip, start, end, ".")
            for start, end in self.spans(copy, "io"):
                paint(strip, start, end, "~")
            for start, end in self.spans(copy, "compute"):
                paint(strip, start, end, "#")
            for start, end in self.spans(copy, "flush"):
                paint(strip, start, end, "#")
            lines.append(f"{copy:<{name_w}} |{''.join(strip)}|")
        return "\n".join(lines)

    def utilisation_report(self) -> str:
        """Per-copy busy/io/blocked/idle text table."""
        util = self.utilisation()
        if not util:
            return "(no events)"
        name_w = max(max(len(c) for c in util), len("copy"))
        lines = [
            f"{'copy':<{name_w}}  {'busy':>9}  {'io':>9}  "
            f"{'blocked':>9}  {'idle':>9}  {'span':>9}"
        ]
        for copy, row in util.items():
            lines.append(
                f"{copy:<{name_w}}  {row['busy']:>9.3f}  {row['io']:>9.3f}  "
                f"{row['blocked']:>9.3f}  {row['idle']:>9.3f}  {row['span']:>9.3f}"
            )
        return "\n".join(lines)

    def report(self, width: int = 64) -> str:
        """Timeline + utilisation + ack-latency + queue-depth text report."""
        sections = [self.timeline(width=width)]
        if self.events:
            sections.append("")
            sections.append("per-copy utilisation (seconds):")
            sections.append(self.utilisation_report())
        histogram = self.ack_latency_histogram()
        if histogram:
            total = sum(count for _lo, _hi, count in histogram)
            sections.append("")
            sections.append(f"ack latency ({total} acks):")
            peak = max(count for _lo, _hi, count in histogram)
            for lo, hi, count in histogram:
                bar = "#" * int(count / peak * 32) if count else ""
                sections.append(f"  {lo * 1e3:9.3f}..{hi * 1e3:9.3f} ms {count:6d} {bar}")
        depths = self.queue_depth_stats()
        if depths:
            sections.append("")
            sections.append("queue depth (samples / min / mean / max):")
            for queue, row in depths.items():
                sections.append(
                    f"  {queue}: {int(row['samples'])} / {row['min']:.0f} / "
                    f"{row['mean']:.2f} / {row['max']:.0f}"
                )
        if self.dropped:
            sections.append("")
            sections.append(
                f"WARNING: trace truncated — {self.dropped} records dropped "
                f"past limit={self.limit}; totals above are lower bounds"
            )
        return "\n".join(sections)

    # -- persistence -----------------------------------------------------------
    def dump(self, fh: IO[str]) -> None:
        """Write the trace as JSONL (one meta line, then one record per line)."""
        meta = {
            "type": "meta",
            "version": _JSONL_VERSION,
            "clock": self.clock,
            "limit": self.limit,
            "dropped": self.dropped,
        }
        fh.write(json.dumps(meta) + "\n")
        for e in self.events:
            fh.write(
                json.dumps(
                    {
                        "type": "event",
                        "t": e.time,
                        "copy": e.copy,
                        "kind": e.kind,
                        "detail": e.detail,
                    }
                )
                + "\n"
            )
        for s in self.queue_samples:
            fh.write(
                json.dumps(
                    {"type": "queue", "t": s.time, "queue": s.queue, "depth": s.depth}
                )
                + "\n"
            )

    def to_jsonl(self, path: str) -> None:
        """Write the trace to a JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            self.dump(fh)

    @classmethod
    def load(cls, fh: IO[str]) -> "Tracer":
        """Read a trace previously written by :meth:`dump`."""
        tracer = cls()
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace line {lineno}: invalid JSON") from exc
            kind = record.get("type")
            if kind == "meta":
                tracer.clock = record.get("clock", "")
                tracer.limit = int(record.get("limit", tracer.limit))
                tracer.dropped = int(record.get("dropped", 0))
            elif kind == "event":
                tracer.events.append(
                    TraceEvent(
                        float(record["t"]),
                        str(record["copy"]),
                        str(record["kind"]),
                        str(record.get("detail", "")),
                    )
                )
            elif kind == "queue":
                tracer.queue_samples.append(
                    QueueSample(
                        float(record["t"]),
                        str(record["queue"]),
                        int(record["depth"]),
                    )
                )
            # Unknown record types are skipped: newer writers stay readable.
        return tracer

    @classmethod
    def from_jsonl(cls, path: str) -> "Tracer":
        """Read a trace from a JSONL file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.load(fh)
