"""Unit tests for the engine-agnostic tracing layer."""

import threading

import pytest

from repro.core.tracing import EVENT_KINDS, QueueSample, TraceEvent, Tracer


def make_tracer():
    """A tracer with one copy's worth of hand-written activity."""
    tracer = Tracer(clock="sim")
    tracer.record(0.0, "f@h#0", "recv", "s", end=0.1)
    tracer.record(0.1, "f@h#0", "work", end=0.3)
    tracer.record(0.3, "f@h#0", "produce", end=0.4)
    tracer.record(0.4, "f@h#0", "send", "s->h2", end=0.6)
    tracer.record(0.4, "f@h#0", "blocked", end=0.6)
    tracer.record(0.575, "f@h#0", "acked", end=0.7)
    tracer.record(0.8, "f@h#0", "flush", end=0.9)
    tracer.record(1.0, "f@h#0", "announce")
    tracer.sample_queue(0.0, "f@h", 3)
    tracer.sample_queue(0.5, "f@h", 1)
    return tracer


def test_unknown_kind_rejected():
    tracer = Tracer()
    with pytest.raises(ValueError, match="unknown trace event kind"):
        tracer.record(0.0, "c", "teleport")


def test_all_schema_kinds_accepted():
    tracer = Tracer()
    for kind in EVENT_KINDS:
        tracer.record(0.0, "c", kind)
    assert len(tracer.events) == len(EVENT_KINDS)


def test_an_instant_is_a_span_of_no_length():
    tracer = Tracer()
    tracer.record(2.0, "c", "analysis", "G101: x")
    assert tracer.events == [TraceEvent(2.0, 2.0, "c", "analysis", "G101: x")]


def test_spans_and_blocked_time():
    tracer = make_tracer()
    assert tracer.spans("f@h#0", "work") == [(0.1, 0.3)]
    assert tracer.spans("f@h#0", "produce") == [(0.3, 0.4)]
    assert tracer.spans("f@h#0", "blocked") == [(0.4, 0.6)]
    assert tracer.spans("f@h#0", "recv") == [(0.0, 0.1)]
    assert tracer.spans("f@h#0", "work", "flush") == [(0.1, 0.3), (0.8, 0.9)]
    assert tracer.spans("f@h#0", "announce") == [(1.0, 1.0)]


def test_utilisation_accounting():
    tracer = make_tracer()
    util = tracer.utilisation()["f@h#0"]
    assert util["span"] == pytest.approx(1.0)
    assert util["busy"] == pytest.approx(0.2 + 0.1)  # work + flush
    assert util["io"] == pytest.approx(0.1)
    assert util["blocked"] == pytest.approx(0.2)
    assert util["idle"] == pytest.approx(1.0 - 0.3 - 0.1 - 0.2)


def test_a_stall_inside_work_is_not_counted_twice():
    """Real engines send inline: a ``blocked`` span nests in the work (or
    flush) that sent, and counts as blocked, not as busy as well."""
    tracer = Tracer()
    tracer.record(0.0, "p@h#0", "work", end=1.0)
    tracer.record(0.2, "p@h#0", "send", "s->h", end=0.6)
    tracer.record(0.3, "p@h#0", "blocked", end=0.5)
    tracer.record(1.0, "p@h#0", "flush", end=2.0)
    tracer.record(1.5, "p@h#0", "blocked", end=1.9)
    tracer.record(2.0, "p@h#0", "blocked", end=2.5)  # outside both: counted once
    util = tracer.utilisation()["p@h#0"]
    assert util["busy"] == pytest.approx(2.0 - 0.2 - 0.4)
    assert util["blocked"] == pytest.approx(0.2 + 0.4 + 0.5)
    assert util["idle"] == pytest.approx(0.0)
    assert util["busy"] + util["io"] + util["blocked"] + util["idle"] == (
        pytest.approx(util["span"])
    )
    assert tracer.stage_busy() == pytest.approx({"p": 2.0})  # work + flush


def test_ack_latencies_and_histogram():
    tracer = Tracer()
    for value in (0.001, 0.002, 0.004, 0.008):
        tracer.record(1.0, "p@h#0", "acked", end=1.0 + value)
    latencies = tracer.ack_latencies()
    assert latencies == pytest.approx([0.001, 0.002, 0.004, 0.008])
    histogram = tracer.ack_latency_histogram(bins=7)
    assert sum(count for _lo, _hi, count in histogram) == 4
    assert histogram[0][0] == pytest.approx(0.001)
    assert histogram[-1][1] == pytest.approx(0.008)
    assert Tracer().ack_latency_histogram() == []


def test_queue_depth_stats():
    tracer = make_tracer()
    stats = tracer.queue_depth_stats()["f@h"]
    assert stats["samples"] == 2
    assert stats["min"] == 1.0
    assert stats["max"] == 3.0
    assert stats["mean"] == pytest.approx(2.0)


def test_dropped_surfaced_everywhere():
    tracer = Tracer(limit=2)
    for i in range(5):
        tracer.record(float(i), "c", "recv")
    tracer.sample_queue(0.0, "q", 1)  # also counted against the limit
    assert len(tracer.events) == 2
    assert tracer.dropped == 4
    assert tracer.summary()["dropped"] == 4
    assert "TRUNCATED" in tracer.timeline()
    assert "4" in tracer.report()
    assert "dropped" in tracer.report()


def test_empty_timeline_mentions_drops():
    tracer = Tracer(limit=1)
    tracer.sample_queue(0.0, "q", 1)
    tracer.record(0.0, "c", "recv")
    assert "dropped" in tracer.timeline()


def test_timeline_paints_marks():
    tracer = make_tracer()
    text = tracer.timeline(width=32)
    assert "f@h#0" in text
    assert "#" in text  # work
    assert "." in text  # blocked
    assert "TRUNCATED" not in text


def test_report_sections():
    report = make_tracer().report(width=32)
    assert "per-copy utilisation" in report
    assert "ack latency" in report
    assert "queue depth" in report


def test_jsonl_round_trip(tmp_path):
    tracer = make_tracer()
    tracer.dropped = 3  # pretend truncation; meta must carry it
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(str(path))
    loaded = Tracer.from_jsonl(str(path))
    assert loaded.events == tracer.events
    assert loaded.queue_samples == tracer.queue_samples
    assert loaded.dropped == 3
    assert loaded.clock == "sim"
    assert loaded.limit == tracer.limit
    # The loaded trace renders the same timeline.
    assert loaded.timeline(width=24) == tracer.timeline(width=24)


META = '{"type": "meta", "version": 2, "clock": "sim", "dropped": 0}\n'
EVENT = '{"type": "event", "t": 0.0, "end": 0.5, "copy": "c", "kind": "recv"}\n'


def test_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(META + EVENT + "not json\n")
    with pytest.raises(ValueError, match="line 3: invalid JSON"):
        Tracer.from_jsonl(str(path))


@pytest.mark.parametrize(
    "line, why",
    [
        ("[1, 2]", "expected a JSON object"),
        ('{"type": "event", "end": 0.5, "copy": "c", "kind": "recv"}', "missing field 't'"),
        ('{"type": "event", "t": 0.0, "copy": "c", "kind": "recv"}', "missing field 'end'"),
        ('{"type": "event", "t": "x", "end": 0.5, "copy": "c", "kind": "recv"}', "float"),
        ('{"type": "event", "t": 0.0, "end": 0.5, "copy": "c", "kind": "teleport"}',
         "unknown trace event kind"),
        ('{"type": "queue", "t": 0.0, "queue": "q"}', "missing field 'depth'"),
    ],
)
def test_jsonl_names_the_malformed_line(tmp_path, line, why):
    path = tmp_path / "bad.jsonl"
    path.write_text(META + EVENT + line + "\n")
    with pytest.raises(ValueError, match=f"trace line 3: .*{why}"):
        Tracer.from_jsonl(str(path))


@pytest.mark.parametrize(
    "text, why",
    [
        ('{"type": "meta", "version": 1, "clock": "sim", "dropped": 0}\n' + EVENT,
         "version 1"),
        ('{"type": "meta", "version": 99, "clock": "sim", "dropped": 0}\n' + EVENT,
         "version 99"),
        ('{"type": "meta", "clock": "sim", "dropped": 0}\n' + EVENT, "version None"),
        (EVENT, "first record must be a version-2 meta line"),
        ("\n", "no meta line"),
    ],
)
def test_jsonl_refuses_any_other_version(tmp_path, text, why):
    path = tmp_path / "old.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=why):
        Tracer.from_jsonl(str(path))


def test_jsonl_skips_unknown_record_types(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(
        META
        + '{"type": "hologram", "t": 0.0}\n'
        + '{"type": "event", "t": 1.0, "end": 1.5, "copy": "c", "kind": "announce"}\n'
    )
    loaded = Tracer.from_jsonl(str(path))
    assert loaded.events == [TraceEvent(1.0, 1.5, "c", "announce", "")]


def test_record_is_thread_safe():
    tracer = Tracer()
    errors = []

    def spam(tid):
        try:
            for i in range(500):
                tracer.record(float(i), f"copy{tid}", "recv")
                tracer.sample_queue(float(i), f"q{tid}", i % 5)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=spam, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(tracer.events) + len(tracer.queue_samples) == 8 * 1000
    assert tracer.dropped == 0


def test_limit_validation():
    with pytest.raises(ValueError):
        Tracer(limit=0)


def test_queue_sample_dataclass_round_values():
    sample = QueueSample(1.0, "q", 4)
    assert sample.depth == 4


def test_timeline_rejects_degenerate_width():
    tracer = make_tracer()
    for width in (0, -3):
        with pytest.raises(ValueError, match="width"):
            tracer.timeline(width=width)
    assert "|" in tracer.timeline(width=1)  # minimum width still renders


def test_stage_busy_sums_copies_per_filter():
    tracer = Tracer()
    # Two Ra copies and one M copy; busy = work + flush spans.
    tracer.record(0.0, "Ra@h0#0", "work", end=1.0)
    tracer.record(0.5, "Ra@h1#0", "work", end=2.5)
    tracer.record(3.0, "M@h0#0", "flush", end=3.25)
    busy = tracer.stage_busy()
    assert busy == pytest.approx({"Ra": 3.0, "M": 0.25})
    assert list(busy) == ["M", "Ra"]  # sorted by stage name


def test_stage_busy_empty_tracer():
    assert Tracer().stage_busy() == {}
