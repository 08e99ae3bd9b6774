"""Engine-agnostic execution tracing: one observability layer for every engine.

A :class:`Tracer` holds :class:`TraceEvent` records of every filter copy,
timed by the *owning engine's clock*: simulated seconds for
:class:`~repro.engines.simulated.SimulatedEngine`, wall-clock seconds since
run start for the threaded and process engines.  A record is a span
(``time`` .. ``end``); an instant has ``end == time``.  The drivers of the
work cycle (:func:`repro.engines.runtime.execute_cycle`) write the trace:
each records one span per effect it performs, named after the effect, so
every engine emits the same kinds and the timeline view, the per-copy
utilisation summary and the JSONL export work identically on any of them.

Record kinds: the ten effects — ``init``, ``produce`` (a source's next
unit; the simulator's disk read), ``recv`` (queue wait; detail: stream),
``ack``, ``work`` (a real engine's decode, ``handle`` and inline sends),
``send`` (detail: ``stream->dst_host``; a real engine's sends sit inside
work and flush), ``flush``, ``finish``, ``discard`` and ``announce`` — and five more:

==============  ==============================================================
``blocked``     a writer stalled on full DD windows, inside a send
``acked``       a send-to-acknowledgment round trip, recorded by the
                consumer under the producer's label
``analysis``    a static-verifier WARNING, an instant at run start
                (detail: ``rule-id: message``)
``cache_hit``   a serve-layer cache lookup that hit, an instant (copy
                ``cache``; detail: tier and stored size)
``cache_miss``  the same, for a miss
==============  ==============================================================

Beyond records the tracer carries *queue-depth samples* (keyed by copy-set
label) so consumer backlogs are visible, and derives busy/io/blocked/idle
accounting and DD ack-latency histograms from the spans.  Traces round-trip
through JSONL (:meth:`Tracer.to_jsonl` / :meth:`Tracer.from_jsonl`, format
version 2) and render with the ``repro trace`` CLI.

Dropped records are never silent: past ``limit`` the tracer counts what it
discarded, and every summary/timeline/report states the truncation.
"""

from __future__ import annotations

import bisect
import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import IO, Any

__all__ = ["EVENT_KINDS", "TraceEvent", "QueueSample", "Tracer"]

#: Every record kind: the ten effects of the work cycle, then the records
#: that are no effect (``blocked`` inside a send, ``acked`` inside an ack),
#: the verifier's ``analysis`` warnings and the serve layer's cache lookups.
EVENT_KINDS = frozenset(
    {"init", "produce", "recv", "ack", "work", "send", "flush", "finish",
     "discard", "announce",
     "blocked", "acked", "analysis", "cache_hit", "cache_miss"}
)

_JSONL_VERSION = 2


def _check_kind(kind: str) -> str:
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown trace event kind {kind!r}; expected one of "
            f"{sorted(EVENT_KINDS)}"
        )
    return kind


def _nested(inner: list[tuple[float, float]], outer: list[tuple[float, float]]) -> float:
    """Total length of the ``inner`` spans lying inside one of ``outer``'s
    (sorted by start, and not overlapping one another)."""
    starts = [start for start, _end in outer]
    total = 0.0
    for start, end in inner:
        i = bisect.bisect_right(starts, start) - 1
        if i >= 0 and end <= outer[i][1]:
            total += end - start
    return total


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span of one filter copy; an instant has ``end == time``."""

    time: float
    end: float
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
    def record(self, time: float, copy: str, kind: str, detail: str = "",
               end: "float | None" = None) -> None:
        """Append one span (an instant without ``end``); past ``limit`` it
        is counted in ``dropped``."""
        event = TraceEvent(time, time if end is None else end, copy,
                           _check_kind(kind), detail)
        with self._lock:
            if len(self.events) + len(self.queue_samples) >= self.limit:
                self.dropped += 1
                return
            self.events.append(event)

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
        """Records of one copy, in start-time order."""
        return sorted(
            (e for e in self.events if e.copy == copy), key=lambda e: e.time
        )

    def copies(self) -> list[str]:
        """All copy labels seen, sorted."""
        return sorted({e.copy for e in self.events})

    def counts(self) -> dict[str, int]:
        """Record-kind histogram."""
        return dict(Counter(e.kind for e in self.events))

    def spans(self, copy: str, *kinds: str) -> list[tuple[float, float]]:
        """(start, end) of one copy's records of the given kinds, in order."""
        return [(e.time, e.end) for e in self.for_copy(copy) if e.kind in kinds]

    def ack_latencies(self, copy: str | None = None) -> list[float]:
        """Send-to-acknowledgment round trips (seconds): the ``acked`` spans."""
        return [
            e.end - e.time for e in self.events
            if e.kind == "acked" and copy in (None, e.copy)
        ]

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
        """Per-copy time accounting derived from the spans.

        For every copy: ``span`` (first start to last end), ``busy`` (work +
        flush, less the stalls nested in them: a real engine sends inline),
        ``io`` (produce), ``blocked``, and ``idle`` (span minus the rest,
        clamped at zero — time waiting on input queues).
        """
        out: dict[str, dict[str, float]] = {}
        for copy in self.copies():
            events = self.for_copy(copy)
            span = max(e.end for e in events) - events[0].time
            working = self.spans(copy, "work", "flush")
            stalls = self.spans(copy, "blocked")
            busy = sum(e - s for s, e in working) - _nested(stalls, working)
            io = sum(e - s for s, e in self.spans(copy, "produce"))
            blocked = sum(e - s for s, e in stalls)
            out[copy] = {
                "span": span,
                "busy": busy,
                "io": io,
                "blocked": blocked,
                "idle": max(span - busy - io - blocked, 0.0),
            }
        return out

    def stage_busy(self) -> dict[str, float]:
        """Total busy seconds (work + flush spans) per *stage*.

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
            out[stage] += sum(e - s for s, e in self.spans(copy, "work", "flush"))
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

        ``#`` = working/flushing, ``~`` = producing (disk I/O), ``.`` =
        blocked on a full window (painted over the work that sent), space =
        idle/waiting.  A truncated trace says so in the header.
        """
        if width < 1:
            raise ValueError(f"timeline width must be >= 1, got {width}")
        if not self.events:
            if self.dropped:
                return f"(no events; {self.dropped} dropped past limit)"
            return "(no events)"
        t0 = min(e.time for e in self.events)
        t1 = max(e.end for e in self.events)
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
            for kinds, mark in ((("work", "flush"), "#"), (("produce",), "~"),
                                (("blocked",), ".")):
                for start, end in self.spans(copy, *kinds):
                    paint(strip, start, end, mark)
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
            record = {"type": "event", "t": e.time, "end": e.end, "copy": e.copy,
                      "kind": e.kind, "detail": e.detail}
            fh.write(json.dumps(record) + "\n")
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
        """Read a trace previously written by :meth:`dump`.

        The first record must be the meta line of format version 2; any
        other version is refused, not guessed at.  A malformed line raises
        :class:`ValueError` naming it; record types this reader does not
        know are skipped, so newer writers stay readable.
        """
        tracer = cls()
        first = True
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                tracer._read(json.loads(line), first)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace line {lineno}: invalid JSON") from exc
            except KeyError as exc:
                raise ValueError(f"trace line {lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from exc
            first = False
        if first:
            raise ValueError("empty trace: no meta line")
        return tracer

    def _read(self, record: Any, first: bool) -> None:
        """Apply one parsed line; the ``first`` must be the meta line."""
        if not isinstance(record, dict):
            raise ValueError(f"expected a JSON object, got {record!r:.40}")
        kind, version = record.get("type"), record.get("version")
        if first:
            if kind != "meta" or version != _JSONL_VERSION:
                raise ValueError(
                    f"the first record must be a version-{_JSONL_VERSION} meta "
                    f"line, not type {kind!r}, version {version!r}"
                )
            self.clock = str(record.get("clock", ""))
            self.limit = int(record.get("limit", self.limit))
            self.dropped = int(record.get("dropped", 0))
        elif kind == "event":
            self.events.append(TraceEvent(
                float(record["t"]), float(record["end"]), str(record["copy"]),
                _check_kind(str(record["kind"])), str(record.get("detail", "")),
            ))
        elif kind == "queue":
            self.queue_samples.append(QueueSample(
                float(record["t"]), str(record["queue"]), int(record["depth"])
            ))

    @classmethod
    def from_jsonl(cls, path: str) -> "Tracer":
        """Read a trace from a JSONL file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.load(fh)
