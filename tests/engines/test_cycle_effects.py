"""The work cycle without I/O: a scripted fake driver answers its effects.

``execute_cycle`` performs nothing; it yields ``(effect, argument)`` requests
and is sent their results.  Every engine drives it — threads and forked
copies by blocking, the simulator in simulated time — so what it asks for,
in which order, *is* the work-cycle protocol.  These tests pin that order,
the books it keeps and its crash paths with no threads, no DES and no
timing: a script says what each effect returns (or raises).
"""

import pytest

from repro.core import DataBuffer, FilterGraph, Placement
from repro.core.tracing import Tracer
from repro.engines.runtime import (
    ACK,
    ANNOUNCE,
    DISCARD,
    FINISH,
    FLUSH,
    INIT,
    PRODUCE,
    RECV,
    SEND,
    WORK,
    CycleReport,
    Envelope,
    _trampoline,
    copy_plan,
    execute_cycle,
)
from repro.errors import EngineError

#: What an unscripted effect returns: nothing received, produced or emitted.
DEFAULT_REPLY = {
    INIT: None, PRODUCE: None, RECV: None, ACK: False, WORK: (),
    SEND: ("src->mid", "h0"), FLUSH: (), FINISH: None, DISCARD: None,
    ANNOUNCE: None,
}


def copies():
    """src@h0 -> mid@h0 -> snk@h1, planned as every engine plans them."""
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("mid")
    g.add_filter("snk")
    g.connect("src", "mid")
    g.connect("mid", "snk")
    p = Placement().place("src", ["h0"]).place("mid", ["h0"]).place("snk", ["h1"])
    return {copy.spec.name: copy for copy in copy_plan(g, p)}


def wire(n, stream="src->mid", needs_ack=True):
    return Envelope(0, stream, 0, 0, 0.0, needs_ack, DataBuffer(8, payload=n))


def drive(copy, script, k=7):
    """Run one cycle of ``copy`` against ``script`` (effect -> replies, used
    in order; an exception is raised into the cycle).  Returns the report
    and every ``(effect, argument)`` the cycle asked for."""
    replies = {effect: list(values) for effect, values in script.items()}
    report = CycleReport(copy.cid, k)
    steps = execute_cycle(copy, k, report, lambda: 2.5)
    asked = []
    value, thrown = None, None
    while True:
        try:
            request = steps.send(value) if thrown is None else steps.throw(thrown)
        except StopIteration:
            return report, asked
        asked.append(request)
        effect = request[0]
        reply = replies[effect].pop(0) if replies.get(effect) else DEFAULT_REPLY[effect]
        value, thrown = (None, reply) if isinstance(reply, BaseException) else (reply, None)


def effects(asked):
    return [effect for effect, _arg in asked]


def test_work_raising_mid_stream_drains_then_announces_once():
    w1, w2, w3 = wire(1), wire(2), wire(3)
    report, asked = drive(
        copies()["mid"],
        {RECV: [w1, w2, w3, None], ACK: [True], WORK: [RuntimeError("boom")]},
    )
    assert asked == [
        (INIT, None), (RECV, None), (ACK, w1), (WORK, w1),
        # the crash drain: the rest of the input, discarded unread
        (RECV, None), (DISCARD, w2), (RECV, None), (DISCARD, w3), (RECV, None),
        (ANNOUNCE, None),
    ]
    assert report.error.startswith("mid@h0#0 cycle 7: Traceback")
    assert "RuntimeError: boom" in report.error
    assert (report.buffers_in, report.ack_messages) == (1, 1)
    assert report.finished_at == 2.5


@pytest.mark.parametrize("failing", [FLUSH, FINISH])
def test_raising_after_input_closed_requests_no_receive(failing):
    report, asked = drive(
        copies()["snk"],
        {RECV: [wire(1, "mid->snk"), None], failing: [RuntimeError("late")]},
    )
    after_close = effects(asked)[effects(asked).index(failing):]
    assert RECV not in after_close
    assert after_close[-1] == ANNOUNCE
    assert effects(asked).count(ANNOUNCE) == 1
    assert "snk@h1#0 cycle 7" in report.error and "RuntimeError: late" in report.error


def test_build_error_drains_then_announces():
    w1 = wire(1)
    report, asked = drive(
        copies()["mid"],
        {INIT: [EngineError("filter 'mid' failed to build: OSError()")], RECV: [w1, None]},
    )
    assert asked == [
        (INIT, None), (RECV, None), (DISCARD, w1), (RECV, None), (ANNOUNCE, None),
    ]
    assert "failed to build" in report.error
    assert report.buffers_in == 0


def test_announce_failure_is_the_cycles_error():
    report, asked = drive(copies()["src"], {ANNOUNCE: [OSError("pipe gone")]})
    assert effects(asked).count(ANNOUNCE) == 1
    assert "src@h0#0 cycle 7" in report.error and "pipe gone" in report.error


def test_plain_consumer_effect_sequence():
    w1, w2 = wire(1, "mid->snk"), wire(2, "mid->snk")
    w3 = wire(3, "mid->snk", needs_ack=False)  # its writer's policy wants none
    report, asked = drive(
        copies()["snk"],
        {RECV: [w1, w2, w3, None], ACK: [True, False], FINISH: [{"frame": 1}]},
    )
    assert asked == [
        (INIT, None),
        (RECV, None), (ACK, w1), (WORK, w1),
        (RECV, None), (ACK, w2), (WORK, w2),
        (RECV, None), (WORK, w3),
        (RECV, None),
        (FLUSH, None),
        (FINISH, True),  # a sink: its result is wanted
        (ANNOUNCE, None),
    ]
    assert (report.buffers_in, report.ack_messages) == (3, 1)
    assert (report.result, report.has_result, report.error) == ({"frame": 1}, True, None)


def test_source_effect_sequence_and_books():
    a, b, c = DataBuffer(10), DataBuffer(20), DataBuffer(40)
    report, asked = drive(
        copies()["src"],
        {
            PRODUCE: ["unit0", "unit1", None],
            WORK: [[a, b], []],
            FLUSH: [[c]],
            SEND: [("src->mid", "h0"), ("src->mid", "h1"), ("src->mid", "h1")],
        },
    )
    assert asked == [
        (INIT, None),
        (PRODUCE, None), (WORK, "unit0"), (SEND, a), (SEND, b),
        (PRODUCE, None), (WORK, "unit1"),
        (PRODUCE, None),
        (FLUSH, None), (SEND, c),
        (FINISH, False),  # not a sink: no result
        (ANNOUNCE, None),
    ]
    assert (report.buffers_in, report.buffers_out) == (0, 3)
    assert report.stream_records == {
        ("src->mid", "h0", "h0"): [1, 10],
        ("src->mid", "h0", "h1"): [2, 60],
    }


def scripted(script):
    """Performers for the trampoline: each effect answers from ``script``
    (effect -> replies, used in order), else its default reply."""
    replies = {effect: list(values) for effect, values in script.items()}

    def performer(effect):
        def perform(_arg):
            reply = replies[effect].pop(0) if replies.get(effect) else DEFAULT_REPLY[effect]
            if isinstance(reply, BaseException):
                raise reply
            return reply
        return perform

    return {effect: performer(effect) for effect in DEFAULT_REPLY}


def ticking():
    """A clock that advances one second per read, and counts its reads."""
    ticks = iter(range(10**6))
    clock = lambda: float(next(ticks))  # noqa: E731
    return clock, ticks


def test_the_trampoline_traces_one_span_per_effect_in_order():
    copy = copies()["mid"]
    report = CycleReport(copy.cid, 7)
    tracer = Tracer()
    clock, _ticks = ticking()
    _trampoline(
        execute_cycle(copy, 7, report, clock),
        scripted({
            RECV: [wire(1), None], ACK: [True], WORK: [[DataBuffer(8)]],
            SEND: [("mid->snk", "h1")],
        }),
        tracer, copy.label, clock,
    )
    assert [(e.time, e.end, e.copy, e.kind, e.detail) for e in tracer.events] == [
        (0.0, 1.0, "mid@h0#0", INIT, ""),
        (2.0, 3.0, "mid@h0#0", RECV, "src->mid"),
        (4.0, 5.0, "mid@h0#0", ACK, ""),
        (6.0, 7.0, "mid@h0#0", WORK, ""),
        (8.0, 9.0, "mid@h0#0", SEND, "mid->snk->h1"),
        (10.0, 11.0, "mid@h0#0", RECV, ""),  # the input closed
        (12.0, 13.0, "mid@h0#0", FLUSH, ""),
        (14.0, 15.0, "mid@h0#0", FINISH, ""),
        (16.0, 17.0, "mid@h0#0", ANNOUNCE, ""),
    ]
    assert report.finished_at == 18.0
    assert report.ack_messages == 1 and report.buffers_out == 1


def test_an_effect_that_raises_is_traced_and_thrown_back():
    copy = copies()["mid"]
    report = CycleReport(copy.cid, 7)
    tracer = Tracer()
    clock, _ticks = ticking()
    _trampoline(
        execute_cycle(copy, 7, report, clock),
        scripted({RECV: [wire(1), wire(2), None], WORK: [RuntimeError("boom")]}),
        tracer, copy.label, clock,
    )
    assert [(e.kind, e.detail) for e in tracer.events] == [
        (INIT, ""), (RECV, "src->mid"), (ACK, ""), (WORK, ""),
        (RECV, "src->mid"), (DISCARD, ""), (RECV, ""), (ANNOUNCE, ""),
    ]
    assert "RuntimeError: boom" in report.error


def test_an_untraced_cycle_reads_no_extra_clock():
    copy = copies()["mid"]
    report = CycleReport(copy.cid, 7)
    clock, ticks = ticking()
    _trampoline(
        execute_cycle(copy, 7, report, clock),
        scripted({RECV: [wire(1), None], WORK: [[DataBuffer(8)]]}),
        None, copy.label, clock,
    )
    assert report.finished_at == 0.0  # the cycle's own read, and no other
    assert next(ticks) == 1


@pytest.mark.parametrize("replies, suspended_at", [
    ([], INIT),
    # work raises: the crash drain's first receive
    ([None, wire(1), True, RuntimeError("boom")], RECV),
    ([None, None, (), None], ANNOUNCE),
], ids=["after-init", "in-the-crash-drain", "at-announce"])
def test_a_closed_cycle_performs_nothing_more(replies, suspended_at):
    copy = copies()["mid"]
    report = CycleReport(copy.cid, 0)
    steps = execute_cycle(copy, 0, report, lambda: 1.0)
    request = next(steps)
    for reply in replies:
        thrown = isinstance(reply, BaseException)
        request = steps.throw(reply) if thrown else steps.send(reply)
    assert request == (suspended_at, None)
    error = report.error
    steps.close()  # its driver went away: no drain, no announce, no record
    assert report.error is error and report.finished_at == 0.0
