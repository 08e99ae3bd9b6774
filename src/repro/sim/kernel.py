"""Discrete-event simulation kernel.

A minimal, deterministic process-based DES in the style of SimPy, tailored to
the needs of the cluster substrate: coroutine processes, one-shot events,
timeouts, and composite conditions.  The kernel is the foundation every
simulated resource (CPU, disk, network link, stream queue) is built on.

Determinism: events scheduled for the same simulated time fire in FIFO order
of scheduling (a monotonically increasing sequence number breaks ties), so a
simulation given the same inputs always produces the same trace.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "PENDING",
]


class _PendingType:
    """Sentinel for an event value that has not been decided yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* when :meth:`succeed` or
    :meth:`fail` is called, which schedules its callbacks to run at the
    current simulation time.  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool | None = None
        self._defused = False

    # -- state predicates ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have all run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event will have the exception raised at its
        yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Built already triggered, without the pending state Event starts in.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heapq.heappush(env._queue, (env._now + delay, env._seq, self))
        env._seq += 1


class Process(Event):
    """A coroutine driven by the events it yields.

    The process itself is an event that triggers with the generator's return
    value when it finishes (or fails with the escaping exception).
    """

    __slots__ = ("name", "_generator")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"expected a generator, got {generator!r}")
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Bootstrap: resume the process at the current time.
        boot = Event(env)
        boot._ok = True
        boot._value = None
        boot.callbacks.append(self._resume)
        env._schedule(boot)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    # -- internal --------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        event: Any = trigger
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    # Mark the failure as handled so the env does not crash.
                    event._defused = True
                    exc = event._value
                    target = self._generator.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process body failed
                self.fail(exc)
                return

            if not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                try:
                    self._generator.throw(err)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as exc:  # noqa: BLE001
                    self.fail(exc)
                return
            if target.callbacks is None:
                # Already processed: continue immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Base for composite events (:class:`AllOf`)."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different envs")
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.triggered}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every constituent event has succeeded.

    Fails as soon as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class Environment:
    """The simulation world: clock plus event queue.

    Typical use::

        env = Environment()

        def producer(env):
            yield env.timeout(1.0)
            return "finished"

        proc = env.process(producer(env))
        env.run()
        assert env.now == 1.0
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def scheduled(self) -> int:
        """Events scheduled so far (the tie-breaking sequence's count)."""
        return self._seq

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events``."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run up to that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        stop_at: float | None = None
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})"
                )

        queue, pop = self._queue, heapq.heappop
        while queue:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if stop_at is not None and queue[0][0] > stop_at:
                self._now = stop_at
                return None
            self._now, _seq, event = pop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            if event._ok is False and not event._defused:
                # An event failed and nothing was listening: surface the error.
                raise event._value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError("run() ran out of events before `until` fired")
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        if stop_at is not None and stop_at > self._now:
            self._now = stop_at
        return None
