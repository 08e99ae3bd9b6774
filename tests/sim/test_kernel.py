"""Unit tests for the DES kernel: events, processes, conditions, run()."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    assert env.now == 2.5


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value_via_run_until():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            marks.append(env.now)

    env.process(proc(env))
    env.run()
    assert marks == [1.0, 3.0, 6.0]


def test_same_time_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append((env.now, value))

    def firer(env):
        yield env.timeout(3.0)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == [(3.0, "payload")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_process_exception_escapes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("process crashed")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="process crashed"):
        env.run()


def test_waiting_on_failed_process_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("inner")

    def outer(env, inner):
        with pytest.raises(RuntimeError, match="inner"):
            yield inner
        return "survived"

    inner = env.process(bad(env))
    outer_p = env.process(outer(env, inner))
    assert env.run(until=outer_p) == "survived"


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    results = []

    def proc(env):
        t = env.timeout(1.0, value="early")
        yield env.timeout(5.0)
        value = yield t  # t fired long ago; should not block
        results.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, "early")]


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def proc(env):
        yield "nonsense"

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_time_stops_short():
    env = Environment()
    marks = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)
            marks.append(env.now)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5
    assert marks == [1.0, 2.0, 3.0]
    env.run()  # finish the rest
    assert marks[-1] == 10.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_never_fires_is_error():
    env = Environment()
    ev = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(until=ev)


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(4.0, value="b")
        result = yield env.all_of([a, b])
        times.append(env.now)
        assert set(result.values()) == {"a", "b"}

    env.process(proc(env))
    env.run()
    assert times == [4.0]


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    p = env.process(proc(env))
    assert env.run(until=p) == {}


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


def test_deterministic_trace_repeatable():
    def build_and_run():
        env = Environment()
        order = []

        def worker(env, tag, delay):
            yield env.timeout(delay)
            order.append(tag)
            yield env.timeout(delay)
            order.append(tag.upper())

        for i, delay in enumerate([2.0, 1.0, 2.0, 1.0]):
            env.process(worker(env, f"w{i}", delay))
        env.run()
        return order

    assert build_and_run() == build_and_run()
