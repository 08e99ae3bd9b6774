"""Every interleaving of small graphs, checked against the protocol's parts.

The explorer drives the real :func:`repro.engines.runtime.execute_cycle`
generator of every copy with the real
:class:`~repro.core.policies.Router` and
:class:`~repro.engines.runtime.CloseCount`, bounded FIFO queues and stub
performers, and chooses which copy moves next, depth-first over every
choice.  A move is one step on shared state: a receive (which counts a
marker), an acknowledgment, a discard, a route, or one put into a bounded
queue (a send's envelope, an end-of-work marker, a ``STOP`` owed to a
sibling).  Effects that touch no shared state (init, produce, work, flush,
finish, and a sink's announce) run eagerly after the move before them.

A copy's state is its local history of answers to shared effects
(abstracted: a buffer by its id) plus the puts it still owes; the global
state adds the queue contents, the close counts and the policies' state,
and a state seen before is not explored again.  Generators cannot be
copied, so the explorer keeps going in one world: it tries each move's
shared part and undoes it to learn which states are new, and replays a
schedule prefix from the root only to backtrack into one.  The world it
leaves is closed, which a cycle survives wherever it is suspended.

On every schedule it checks that the run terminates, that each buffer is
handled or discarded exactly once, that acknowledgments equal the
envelopes that asked for one, that no DD window exceeds its bound, that
each copy set sees its final marker exactly once and that every queue ends
empty (the warm pool reuses a slot's queues on that promise).  A violated
property raises :class:`Counterexample`, printed as the schedule of
``(copy label, effect)`` that reaches it; each seeded mutant below yields
one.  ``benchmarks/test_interleavings_matrix.py`` runs the larger cells.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import pytest

from repro.core import DataBuffer, FilterGraph, Placement
from repro.core.policies import DemandDriven, Router, make_policy_factory
from repro.engines.runtime import (
    ACK,
    ANNOUNCE,
    DATA,
    DISCARD,
    EOW,
    FINAL,
    FLUSH,
    PRODUCE,
    RECV,
    SEND,
    STOP,
    WORK,
    CloseCount,
    CycleReport,
    Envelope,
    copy_plan,
    execute_cycle,
)

#: A move's answer when its copy cannot go on (an empty or full queue,
#: every window full): the world is left exactly as it was.
BLOCKED = object()
#: A move's answer when it performed part of an effect that goes on (a
#: route before its put, a marker counted before the next receive).
MORE = object()

CAPACITY = 1
WINDOW = 1
POLICIES = {
    "RR": make_policy_factory("RR"),
    "WRR": make_policy_factory("WRR"),
    "DD": make_policy_factory("DD", window=WINDOW),
}
STREAM = "src->snk"


@functools.cache
def plan():
    """Two producers (h0, h1) into copy sets h0 x 2 and h1 x 1."""
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("snk")
    g.connect("src", "snk")
    p = Placement().place("src", ["h0", "h1"]).place("snk", [("h0", 2), ("h1", 1)])
    return copy_plan(g, p), [(cs.host, cs.copies) for cs in p.copysets("snk")]


def _as_is(recv: Callable) -> Callable:
    return recv


@dataclass(frozen=True)
class Cell:
    """One graph run: a policy, buffers per producer, the consumer copy that
    raises at its first ``work`` (or none), and the parts it runs — the
    product's unless a mutant replaces one."""

    policy: str
    buffers: int
    crash: "str | None" = None
    router: Callable[..., Router] = Router
    close_count: Callable[..., CloseCount] = CloseCount
    #: Wraps the receive move (a mutant's hook).
    recv: Callable[[Callable], Callable] = _as_is

    def __str__(self) -> str:
        return f"{self.policy}-{self.buffers}-{self.crash or 'no crash'}"


class Counterexample(AssertionError):
    """A property that fails on one schedule, with that schedule."""

    def __init__(self, prop: str, schedule: list[tuple[str, str]]) -> None:
        self.prop, self.schedule = prop, schedule
        steps = "\n".join(f"  {label:10} {effect}" for label, effect in schedule)
        super().__init__(f"{prop}, after {len(schedule)} moves:\n{steps}")


@dataclass(eq=False)
class Copy:
    """One copy's cycle, suspended at the effect it asks for next."""

    label: str
    cid: int
    source: bool
    set_idx: int
    report: CycleReport
    steps: Any = None
    request: Any = None  # (effect, argument); None once the cycle ended
    puts: list = field(default_factory=list)  # (copy set, item) still owed
    result: Any = None  # the effect's answer once its puts are done
    units: int = 0
    worked: int = 0
    #: Every answer to a shared effect, abstracted: the cycle's local
    #: effects being deterministic, it fixes where the cycle stands.
    history: tuple = ()


def _item(value: Any) -> Any:
    """A buffer by its id; markers and other answers as they are."""
    return value.payload.payload if isinstance(value, Envelope) else value


class World:
    """One run of a cell's graph, moved one step at a time."""

    def __init__(self, cell: Cell) -> None:
        self.cell = cell
        copies, sets = plan()
        self.queues: list[deque] = [deque() for _ in sets]
        producers = sum(not copy.spec.inputs for copy in copies)
        self.closes = [cell.close_count(n, producers) for _, n in sets]
        self.routers: dict[int, Router] = {}
        self.copies: list[Copy] = []
        self.sent: list[Any] = []  # every buffer put into a queue
        self.asked = 0  # envelopes that asked for an acknowledgment
        self.acks = 0
        self.handled: list[Any] = []
        self.discarded: list[Any] = []
        self.finals = [0] * len(sets)
        self.schedule: list[tuple[str, str]] = []
        self.perform = {
            RECV: cell.recv(self._recv), SEND: self._route,
            ACK: self._ack, DISCARD: self._discard,
        }
        for copy in copies:
            source = not copy.spec.inputs
            if source:
                self.routers[copy.cid] = cell.router(copy.host, sets, POLICIES[cell.policy]())
            c = Copy(copy.label, copy.cid, source, copy.set_idx, CycleReport(copy.cid, 0))
            c.steps = execute_cycle(copy, 0, c.report, lambda: 1.0)
            self.copies.append(c)
            self._advance(c, None)

    # -- moves ---------------------------------------------------------------
    def move(self, i: int) -> bool:
        """Move copy ``i`` one step; False (and nothing changed) if blocked."""
        c = self.copies[i]
        value = self._step(c)
        if value is BLOCKED:
            return False
        if value is not MORE:
            self._advance(c, value)
        return True

    def peek(self, i: int) -> "tuple | None":
        """The state copy ``i``'s next move leads to, or None if it is
        blocked; the move's shared part is undone, so the world stays."""
        c = self.copies[i]
        saved = (
            [list(q) for q in self.queues], [k.tokens.value for k in self.closes],
            [(dict(vars(r.policy)), [t.unacked for t in r.targets])
             for r in self.routers.values()],
            len(self.sent), self.asked, self.acks, len(self.discarded),
            list(self.finals), c.history, list(c.puts), c.result,
        )
        if self._step(c) is BLOCKED:
            return None
        key = self.key()
        queues, seen, routers, sent, self.asked, self.acks, discarded, \
            self.finals, c.history, c.puts, c.result = saved
        for q, items in zip(self.queues, queues):
            q.clear()
            q.extend(items)
        for close, value in zip(self.closes, seen):
            close.tokens.value = value
        for r, (policy, unacked) in zip(self.routers.values(), routers):
            vars(r.policy).update(policy)
            for t, n in zip(r.targets, unacked):
                t.unacked = n
        del self.sent[sent:], self.discarded[discarded:], self.schedule[-1]
        return key

    def _step(self, c: Copy) -> Any:
        """The shared part of ``c``'s next move: its answer, MORE or BLOCKED."""
        effect, arg = c.request
        announcing = effect == ANNOUNCE and not c.puts  # a producer's first
        if announcing:
            c.puts, c.result = [(i, EOW) for i in range(len(self.queues))], None
        self.schedule.append((c.label, effect))
        if c.puts:
            value = self._put(c)
        else:
            value = self.perform[effect](c, arg)
        if value is BLOCKED:
            self.schedule.pop()
            if announcing:
                c.puts = []
        elif value is not MORE:
            c.history += (_item(value),)
        return value

    def _put(self, c: Copy) -> Any:
        set_idx, item = c.puts[0]
        if len(self.queues[set_idx]) >= CAPACITY:
            return BLOCKED
        self.queues[set_idx].append(item)
        if isinstance(item, Envelope):
            self.sent.append(item.payload.payload)
        c.puts = c.puts[1:]
        return MORE if c.puts else c.result

    def _advance(self, c: Copy, value: Any) -> None:
        """Answer the cycle's request with ``value``, then perform its local
        effects until it asks for a shared one (or ends)."""
        thrown = None
        while True:
            try:
                c.request = c.steps.send(value) if thrown is None else c.steps.throw(thrown)
            except StopIteration:
                c.request = None
                return
            effect, arg = c.request
            value = thrown = None
            if effect in self.perform or (effect == ANNOUNCE and c.source):
                return
            try:
                value = self._local(c, effect, arg)
            except RuntimeError as exc:
                thrown = exc

    def _local(self, c: Copy, effect: str, arg: Any) -> Any:
        """Init, produce, work, flush, finish, a sink's announce."""
        if effect == PRODUCE:
            if c.units == self.cell.buffers:
                return None
            c.units += 1
            return c.units
        if effect == WORK and c.source:
            return [DataBuffer(8, payload=(c.label, arg))]
        if effect == WORK:
            self.handled.append(arg.payload.payload)
            c.worked += 1
            if c.label == self.cell.crash and c.worked == 1:
                raise RuntimeError("work raised")
            return ()
        return () if effect == FLUSH else None

    def _recv(self, c: Copy, _: None) -> Any:
        queue = self.queues[c.set_idx]
        if not queue:
            return BLOCKED
        item = queue.popleft()
        meaning, owed = self.closes[c.set_idx].take(item)
        if meaning == DATA:
            return item
        if meaning == FINAL:
            self.finals[c.set_idx] += 1
            c.puts, c.result = [(c.set_idx, STOP)] * owed, None
            return MORE if c.puts else None
        return None if meaning == STOP else MORE

    def _ack(self, _: Copy, wire: Envelope) -> bool:
        self.routers[wire.producer].ack(wire.target_index)
        self.acks += 1
        return True

    def _discard(self, c: Copy, wire: Envelope) -> None:
        self.discarded.append(wire.payload.payload)
        if wire.needs_ack:
            self._ack(c, wire)

    def _route(self, c: Copy, buffer: DataBuffer) -> Any:
        router = self.routers[c.cid]
        target = router.route()
        if target is None:
            return BLOCKED
        if isinstance(router.policy, DemandDriven) and any(
            t.unacked > WINDOW for t in router.targets
        ):
            self.fail("a DD window exceeds its bound")
        needs_ack = router.policy.needs_ack
        self.asked += needs_ack
        wire = Envelope(0, STREAM, c.cid, target.index if needs_ack else -1,
                        0.0, needs_ack, buffer)
        c.puts, c.result = [(target.index, wire)], (STREAM, target.host)
        return MORE

    # -- state and properties ------------------------------------------------
    def key(self) -> tuple:
        return (
            tuple((c.history, tuple((s, _item(x)) for s, x in c.puts))
                  for c in self.copies),
            tuple(tuple(map(_item, q)) for q in self.queues),
            tuple(close.tokens.value for close in self.closes),
            tuple(
                (getattr(r.policy, "_next", 0), tuple(t.unacked for t in r.targets))
                for r in self.routers.values()
            ),
        )

    def fail(self, prop: str) -> None:
        raise Counterexample(prop, list(self.schedule))

    def check_end(self) -> None:
        """No copy can move: the properties of a finished run."""
        stuck = [f"{c.label} at {c.request[0]}" for c in self.copies if c.request]
        if stuck:
            self.fail("the run does not terminate: " + ", ".join(stuck))
        if sorted(self.handled + self.discarded) != sorted(self.sent):
            self.fail("a buffer is not handled or discarded exactly once")
        unacked = sum(t.unacked for r in self.routers.values() for t in r.targets)
        if self.acks != self.asked or unacked:
            self.fail(f"{self.acks} acknowledgments for {self.asked} envelopes, "
                      f"{unacked} outstanding at the routers")
        if self.finals != [1] * len(self.queues):
            self.fail(f"final markers per copy set: {self.finals}")
        if any(self.queues):
            self.fail(f"queues not empty at the end: {[list(q) for q in self.queues]}")
        crashed = [c.label for c in self.copies if c.label == self.cell.crash and c.worked]
        if [c.label for c in self.copies if c.report.error] != crashed:
            self.fail("a copy failed that was not made to")

    def abandon(self) -> None:
        """Close every cycle: each performs and records nothing more."""
        for c in self.copies:
            before = (c.report.error, c.report.finished_at)
            c.steps.close()
            assert (c.report.error, c.report.finished_at) == before


def explore(cell: Cell) -> int:
    """Visit every state of ``cell``'s run; returns how many there are."""
    seen: set = set()

    def replay(prefix: list[int]) -> World:
        world = World(cell)
        for i in prefix:
            assert world.move(i)
        return world

    def visit(world: World, prefix: list[int], key: tuple) -> None:
        seen.add(key)
        nexts = [
            (i, after) for i, c in enumerate(world.copies)
            if c.request is not None and (after := world.peek(i)) is not None
        ]
        if not nexts:
            world.check_end()
        spent = False
        for i, after in nexts:
            if after in seen:
                continue
            if spent:
                world.abandon()
                world = replay(prefix)
            world.move(i)
            assert world.key() == after, "a move's undo left a trace"
            spent = True
            visit(world, prefix + [i], after)

    root = World(cell)
    visit(root, [], root.key())
    return len(seen)


# -- the cells ------------------------------------------------------------------
CRASHES = [None, "snk@h0#0", "snk@h1#0"]

#: The cells that fit in a few seconds; the benchmarks matrix runs the rest.
TIER1 = [
    *(Cell(policy, 2, crash) for policy in ("RR", "WRR") for crash in CRASHES),
    Cell("DD", 2),
    Cell("DD", 2, "snk@h1#0"),
]


@pytest.mark.parametrize("cell", TIER1, ids=str)
def test_every_interleaving_keeps_the_protocol(cell):
    print(f"{cell}: {explore(cell)} states")


# -- seeded mutants -------------------------------------------------------------
class ShortCloseCount(CloseCount):
    """Owes one ``STOP`` fewer than the copy set's siblings need."""

    def take(self, item):
        meaning, owed = super().take(item)
        return meaning, owed - 1 if meaning == FINAL else owed


class GreedyDD(DemandDriven):
    """Picks the least-loaded copy set whether or not its window is full."""

    def select(self):
        return min(self.targets, key=lambda t: t.unacked)


class LostAckRouter(Router):
    """Drops every acknowledgment."""

    def ack(self, index):
        pass


def no_crash_drain(recv):
    """Answers a receive with ``None`` once the cycle recorded an error."""
    return lambda c, arg: None if c.report.error else recv(c, arg)


MUTANTS = {
    "no crash drain": Cell("RR", 2, "snk@h1#0", recv=no_crash_drain),
    "a STOP fewer": Cell("RR", 2, close_count=ShortCloseCount),
    "DD ignores its window": Cell(
        "DD", 3, router=lambda host, sets, _: Router(host, sets, GreedyDD(WINDOW))
    ),
    "a lost ack": Cell("DD", 2, router=LostAckRouter),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_seeded_mutant_yields_a_counterexample(mutant):
    with pytest.raises(Counterexample) as found:
        explore(MUTANTS[mutant])
    print(f"{mutant}: {found.value}")
    assert found.value.schedule
