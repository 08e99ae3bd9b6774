"""The work-cycle runtime of every engine.

The paper's filter-stream protocol is written here exactly once:

- **one cycle** (:func:`execute_cycle`) is a generator of effects — ``init``
  -> receive / acknowledge / work / send -> ``flush`` -> ``finalize`` ->
  announce end-of-work, with a crash drain that keeps the close protocol
  alive when the filter raises — that keeps the books but performs
  nothing: the real engines drive it by blocking, the simulated engine by
  yielding the DES events each effect costs, and each driver traces one span
  per effect it performs (DESIGN §3b);
- **the close** (:class:`CloseCount`) and **routing**
  (:class:`~repro.core.policies.Router`) are sans-I/O parts every engine
  drives: copy-set queues (:class:`CopySetQueue`), shared by all copies of
  a filter on one "host", close *in band* through the one, and writers
  (:class:`Writer`) route through the other, blocking while every DD window
  is full until a consumer's ack reaches the producer's arena;
- **the wire** is kernel pipes of fixed-size
  :class:`~repro.core.buffer.Record` writes, the same for threads and
  forked copies: copy-set queues, each producing copy's answer pipe
  (:class:`~repro.core.buffer.Arena`) and, for forked copies, one control
  and one report pipe each.  A killed copy holds no lock its siblings need;
- **one copy** (:func:`run_copy`) builds its filter once and runs a cycle per
  item of whatever iterator the engine feeds it, performing every effect by
  blocking: the threaded engine passes the units of work it was given,
  forked copies read a generator over their control pipe;
- **one plan** (:func:`copy_plan`) numbers the copies of every engine,
  **one world** (:class:`World`) lays out the real engines' copy sets x
  slots and each producing copy's arena, and **one folder**
  (:func:`fold_cycle`, :func:`merge_trace`, :func:`fold_batch`) turns the
  copies' reports into :class:`~repro.core.instrument.RunMetrics` and a
  merged trace.

What differs between the real engines is the parent side: threads are just
joined, forked copies have one supervisor (``process.ForkedCopies``, batch
run and warm pool alike), and payloads without a codec pass by reference,
which only threads can do.

Payload lifetime contract: with a codec, an input buffer's arrays are
views into the producer's arena valid only during ``handle`` (the runtime
releases the lease when the callback returns, as DataCutter recycles stream
buffers, and the producer then reuses the bytes).  Filters that retain
payload data must copy it.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.core.buffer import (
    RECORD_BYTES, Arena, BufferCodec, DataBuffer, EncodedBuffer, Kind,
    PayloadLease, Record, disposer, pending, pipe, read_exact,
)
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph, FilterSpec, StreamSpec
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Router, Target
from repro.core.tracing import QueueSample, TraceEvent, Tracer
from repro.errors import EngineError

__all__ = [
    "ACK", "ANNOUNCE", "COUNTED", "DATA", "DISCARD", "EOW", "FINAL", "FINISH",
    "FLUSH", "INIT", "PRODUCE", "RECV", "SEND", "STOP", "WORK",
    "CloseCount", "CopyPlan", "CopySetQueue", "CycleReport", "Envelope",
    "Tokens", "World", "Writer",
    "copies_failed", "copy_plan", "discard",
    "execute_cycle", "fold_batch", "fold_cycle", "merge_trace", "run_copy",
    "span_detail",
]

#: The markers a copy-set queue carries besides data.
STOP = Record(Kind.STOP)
EOW = Record(Kind.EOW)

#: One unit of work as a copy sees it: (cycle number, slot of the cycle ring,
#: unit-of-work descriptor, trace limit or ``None`` for an untraced cycle).
Cycle = tuple[int, int, Any, "int | None"]


# -- the wire -----------------------------------------------------------------
@dataclass(eq=False, slots=True)
class Envelope:
    """One stream buffer as the copy that pulled it sees it."""

    cycle: int
    stream: str
    producer: int  # global copy id of the sender
    target_index: int
    sent_at: float
    needs_ack: bool
    #: An EncodedBuffer, or the DataBuffer itself when no codec runs.
    payload: Any


def discard(wire: Envelope, world: "World") -> None:
    """Abandon one in-flight envelope: acknowledge it, then free it.

    The single helper behind every abandon path — a supervisor draining
    dead copy sets and a copy's own crash drain — so none can keep the
    envelope's arena extent from its owner.  The ack reopens DD windows so
    producers blocked on the abandoned consumer wake up and finish.
    """
    world.acknowledge(wire)
    if world.codec is not None:
        world.codec.release_encoded(wire.payload, world.arena_of(wire.payload))


#: What one queued item means to the copy that pulled it (:class:`CloseCount`).
DATA = "data"  # an envelope: work on it
COUNTED = "counted"  # a marker, not the last: keep receiving
FINAL = "final"  # the last marker: stop, and owe each sibling copy a STOP


class Tokens:
    """An end-of-work count in memory: ``value`` tokens left."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def take(self) -> bool:
        """Take one token; False if none was left."""
        if self.value:
            self.value -= 1
            return True
        return False

    def fill(self, count: int) -> None:
        self.value += count


class _PipeTokens:
    """An end-of-work count every forked copy shares: bytes in a pipe whose
    read end, alone of all the wire's pipes, does not block."""

    def __init__(self, count: int) -> None:
        self.fds = os.pipe()
        os.set_blocking(self.fds[0], False)
        self.fill(count)

    def take(self) -> bool:
        try:
            return bool(os.read(self.fds[0], 1))
        except BlockingIOError:
            return False

    def fill(self, count: int) -> None:
        if count > 0:
            os.write(self.fds[1], bytes(count))


class CloseCount:
    """The close of one copy set, without I/O: queued items in, what each
    means out.  Each of ``expected`` producer copies puts one :data:`EOW`
    behind its data, and ``tokens`` (:class:`Tokens` by default) starts at
    ``expected - 1``: the copy that pulls a marker and finds no token left
    pulled the last, so it has seen all the data pulled; it owes each of
    its ``copies - 1`` siblings a :data:`STOP`, and refills the tokens for
    the slot's next cycle.
    """

    __slots__ = ("copies", "expected", "tokens")

    def __init__(self, copies: int, expected: int, tokens: Any = None) -> None:
        self.copies = copies
        self.expected = expected
        self.tokens = tokens if tokens is not None else Tokens(max(expected - 1, 0))

    def take(self, item: Any) -> tuple[Any, int]:
        """``(meaning, STOPs owed)`` of one queued item: ``(DATA, 0)``,
        ``(STOP, 0)``, ``(COUNTED, 0)`` or ``(FINAL, n)``."""
        if item == STOP:
            return STOP, 0
        if item != EOW:
            return DATA, 0
        if self.tokens.take():
            return COUNTED, 0
        self.tokens.fill(self.expected - 1)
        return FINAL, self.copies - 1


class CopySetQueue:
    """Bounded queue shared by all copies of a filter on one host.

    A pipe of :class:`~repro.core.buffer.Record` writes, with a second pipe
    holding one credit byte per free place: a producer takes a credit
    before it puts a data record, and the copy that pulls the record puts
    the credit back.  End-of-work travels *through the data path*: each
    finishing producer puts one marker behind its own data (per-producer
    FIFO holds), and the copies read every record through one
    :class:`CloseCount` whose tokens are a third pipe.  Markers take no
    credit; the data pipe holds every record that can be in it at once.
    """

    def __init__(self, copies: int, expected_eow: int, capacity: int) -> None:
        self.copies = copies
        self._data = pipe((capacity + 2 * expected_eow + copies) * RECORD_BYTES)
        self._credits = pipe(capacity)
        os.write(self._credits[1], bytes(capacity))
        tokens = _PipeTokens(expected_eow - 1)
        self.close = CloseCount(copies, expected_eow, tokens)
        self.dispose = disposer(self, *self._data, *self._credits, *tokens.fds)

    def put(self, record: Record) -> None:
        """Enqueue one record (a data record waits for a credit)."""
        if record.kind == Kind.DATA:
            read_exact(self._credits[0], 1)
        os.write(self._data[1], record.pack())

    def recv(self) -> "Record | None":
        """Next data record; ``None`` once this copy's share of the stream
        closed."""
        while True:
            (record,) = Record.unpack(read_exact(self._data[0], RECORD_BYTES))
            meaning, owed = self.close.take(record)
            if meaning == DATA:
                os.write(self._credits[1], b"\0")
                return record
            for _ in range(owed):
                self.put(STOP)
            if meaning != COUNTED:
                return None

    def queued(self) -> Iterator[Record]:
        """The data records queued right now, their credits put back, without
        blocking — for a supervisor discarding traffic no copy will read, so
        only while none reads this queue; markers are dropped."""
        data = read_exact(self._data[0], pending(self._data[0]))
        for record in Record.unpack(data):
            if record.kind == Kind.DATA:
                os.write(self._credits[1], b"\0")
                yield record

    def qsize(self) -> int:
        """Records queued right now."""
        return pending(self._data[0]) // RECORD_BYTES


class Writer:
    """Producer-side sender for one (copy, cycle, stream) triple.

    It routes through its own :class:`~repro.core.policies.Router`, which
    it registers with the copy's arena: consumers' acks arrive there as
    records, and the arena applies them while the writer waits.
    """

    def __init__(
        self,
        world: "World",
        copy: "CopyPlan",
        cycle: int,
        slot: int,
        stream: StreamSpec,
        tracer: "Tracer | None",
    ) -> None:
        self.world = world
        self.label = copy.label
        self.producer = copy.cid
        self.cycle = cycle
        self.stream = stream.name
        self.index = world.streams.index(stream.name)
        self.tracer = tracer
        self.queues = [sets[slot] for sets in world.copysets[stream.dst]]
        self.router = Router(
            copy.host,
            [(h, q.copies) for h, q in zip(world.hosts[stream.dst], self.queues)],
            world.policy(),
        )
        self.arena = world.arena(copy.cid)
        self.arena.routers[(cycle, self.index)] = self.router

    def send(self, buffer: DataBuffer) -> Target:
        """Encode and route one buffer; blocks while the copy's arena or
        every DD window is full — one wait, on the arena's pipe — and while
        the target queue has no credit."""
        world, codec = self.world, self.world.codec
        if codec is not None:
            try:
                encoded = codec.encode(buffer, self.arena)
            except EngineError as exc:  # a payload larger than the arena
                raise EngineError(
                    f"{self.label} cycle {self.cycle} stream {self.stream!r}: {exc}"
                ) from None
            assert encoded.extent is not None
            extent, header = encoded.extent, len(encoded.header)
        else:
            key = next(world.keys)
            world.refs[key] = buffer
            extent, header = (0, key, 0, 0), 0
        try:
            t0 = world.clock() if self.tracer else 0.0
            target, stalled = self.arena.wait(self.router.route)
            if stalled and self.tracer:
                self.tracer.record(t0, self.label, "blocked", end=world.clock())
            needs_ack = self.router.policy.needs_ack
            self.queues[target.index].put(Record(
                Kind.DATA, self.cycle, self.index, self.producer,
                target.index if needs_ack else -1, extent, header,
                world.clock(), needs_ack,
            ))
        except BaseException:
            # Abandoned mid-send — typically interrupted while blocked on a
            # full DD window.  The buffer is already placed (encode runs
            # first) and no consumer will ever see it, so the sender gives
            # it back itself.
            if codec is not None:
                codec.release_encoded(encoded, self.arena)
            else:
                world.refs.pop(key, None)
            raise
        return target


# -- the world ----------------------------------------------------------------
@dataclass(frozen=True)
class CopyPlan:
    """One transparent copy: which filter, where, and its global id."""

    cid: int
    spec: FilterSpec
    host: str
    copy_index: int
    copies_on_host: int
    total: int
    set_idx: int

    @property
    def label(self) -> str:
        return f"{self.spec.name}@{self.host}#{self.copy_index}"


def copy_plan(graph: FilterGraph, placement: Placement) -> list[CopyPlan]:
    """Number every copy: filters in graph order, then copy sets, then slots
    within a set — the one numbering of every engine."""
    plan: list[CopyPlan] = []
    for name, spec in graph.filters.items():
        total = placement.total_copies(name)
        for set_idx, cs in enumerate(placement.copysets(name)):
            for copy_index in range(cs.copies):
                plan.append(CopyPlan(
                    len(plan), spec, cs.host, copy_index, cs.copies, total, set_idx
                ))
    return plan


class World:
    """Everything the copies of one engine share: pipes and mappings, all
    made before any fork.

    ``copysets[filter][set_idx][slot]`` holds one :class:`CopySetQueue` per
    (filter, host, slot); a batch run uses one slot per cycle so cycles
    pipeline without barriers, the warm pool a ring of ``max_inflight``.
    ``plan`` numbers the copies (:func:`copy_plan`), ``arenas`` holds one
    arena per producing copy and ``streams`` numbers the streams on the
    wire.  ``codec`` carries payloads through the arenas; without one they
    pass by reference through ``refs`` (threads only).  ``clock`` is wall
    seconds since the world was built, on ``perf_counter`` —
    CLOCK_MONOTONIC on Linux, shared by all forked workers, so every copy's
    timestamps are directly comparable.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: PolicyFactory,
        codec: "BufferCodec | None",
        nslots: int,
        queue_capacity: int,
    ) -> None:
        self.policy = policy
        self.codec = codec
        self.nslots = nslots
        self.copysets: dict[str, list[list[CopySetQueue]]] = {}
        self.hosts: dict[str, list[str]] = {}
        for name, spec in graph.filters.items():
            expected = sum(placement.total_copies(s.src) for s in spec.inputs)
            sets = placement.copysets(name)
            self.copysets[name] = [
                [CopySetQueue(cs.copies, expected, queue_capacity)
                 for _ in range(nslots)]
                for cs in sets
            ]
            self.hosts[name] = [cs.host for cs in sets]
        self.plan = copy_plan(graph, placement)
        self.streams = list(graph.streams)
        self.arenas: list["Arena | None"] = [
            Arena(copy.cid) if copy.spec.outputs else None for copy in self.plan
        ]
        #: Buffers passed by reference, by the key their record carries.
        self.refs: dict[int, DataBuffer] = {}
        self.keys = itertools.count()
        self.t_start = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.t_start

    def arena(self, cid: int) -> Arena:
        """Producing copy ``cid``'s arena."""
        arena = self.arenas[cid]
        assert arena is not None, f"{self.plan[cid].label} sends nothing"
        return arena

    def arena_of(self, payload: EncodedBuffer) -> "Arena | None":
        """The arena holding ``payload``'s extent, if it has one."""
        return None if payload.extent is None else self.arenas[payload.owner]

    def envelope(self, record: Record) -> Envelope:
        """The envelope a data record names."""
        if self.codec is None:
            payload: Any = self.refs.pop(record.extent[1])
        else:
            arena = self.arena(record.producer)
            header = arena.mapping[arena.header(record.extent, record.header)]
            payload = EncodedBuffer(header, 0, (), record.producer, record.extent)
        return Envelope(
            record.cycle, self.streams[record.stream], record.producer,
            record.target, record.sent_at, record.needs_ack, payload,
        )

    def acknowledge(self, wire: Envelope) -> bool:
        """Send ``wire``'s producer its acknowledgment; False if none is due."""
        if not wire.needs_ack:
            return False
        self.arena(wire.producer).answer(Record(
            Kind.ACK, wire.cycle, self.streams.index(wire.stream),
            target=wire.target_index,
        ))
        return True

    def queues(self) -> Iterator[CopySetQueue]:
        """Every copy-set queue of every slot."""
        for sets in self.copysets.values():
            for per_set in sets:
                yield from per_set

    def close(self) -> None:
        """Close this process's ends of every pipe (every copy is gone)."""
        for csq in self.queues():
            csq.dispose()
        for arena in self.arenas:
            if arena is not None:
                arena.dispose()


# -- one cycle, one copy ------------------------------------------------------
@dataclass
class CycleReport:
    """One copy's measurements (and trace) for one unit of work; its driver
    adds the seconds it charges (``busy_time``, ``io_time``)."""

    cid: int
    cycle: int
    buffers_in: int = 0
    buffers_out: int = 0
    busy_time: float = 0.0
    io_time: float = 0.0
    finished_at: float = 0.0
    #: (stream, src_host, dst_host) -> [buffers, bytes]
    stream_records: dict[tuple[str, str, str], list[int]] = field(
        default_factory=dict
    )
    ack_messages: int = 0
    result: Any = None
    has_result: bool = False
    error: "str | None" = None
    #: The error is an input payload that could not be decoded: the
    #: transport under this copy failed, not its filter.
    transport_fault: bool = False
    events: list[TraceEvent] = field(default_factory=list)
    queue_samples: list[QueueSample] = field(default_factory=list)
    dropped: int = 0

    def sent(self, stream: str, src: str, dst: str, nbytes: int) -> None:
        """Book one buffer this copy sent from host ``src`` to ``dst``."""
        self.buffers_out += 1
        entry = self.stream_records.setdefault((stream, src, dst), [0, 0])
        entry[0] += 1
        entry[1] += nbytes


#: The effects a cycle asks its driver to perform, each yielded as
#: ``(effect, argument)`` and answered with its result; an effect that raises
#: is thrown back in at its ``yield``.  DESIGN §3b tables both drivers.
INIT = "init"  # -> None: the copy's writers and context, then init
PRODUCE = "produce"  # -> a source's next unit of work, or None
RECV = "recv"  # -> the next input envelope, or None once the input closed
ACK = "ack"  # envelope asking for one -> whether an acknowledgment went out
WORK = "work"  # envelope or unit -> the buffers it emitted, still to send
SEND = "send"  # buffer -> (stream, destination host)
FLUSH = "flush"  # -> the buffers end-of-work emitted, still to send
FINISH = "finish"  # result wanted? -> finalize, then the sink's result
DISCARD = "discard"  # envelope -> None: acknowledged and freed, unread
ANNOUNCE = "announce"  # -> None: end-of-work behind this copy's data
Effect = tuple[str, Any]


def span_detail(effect: str, value: Any) -> str:
    """The detail of an effect's trace span, given what the effect returned:
    a receive's stream, a send's ``stream->host``, otherwise nothing."""
    if effect == SEND:
        return "{}->{}".format(*value)
    return value.stream if effect == RECV and value is not None else ""


def execute_cycle(
    copy: CopyPlan,
    k: int,
    report: CycleReport,
    clock: Callable[[], float],
) -> Generator[Effect, Any, None]:
    """One unit of work through one copy, as the effects it asks for.

    The whole cycle protocol, for every engine: ``init`` -> receive /
    acknowledge / work / send per input buffer (a source: produce / work /
    send per unit of its own) -> flush and send -> finalize and result ->
    announce end-of-work; the books and the crash drain.  It performs
    nothing and traces nothing: :func:`run_copy` drives it by blocking,
    ``SimulatedEngine`` in simulated time, and each driver records the
    spans of the effects it performs.  A failure is recorded in ``report``
    and end-of-work is still announced, exactly once, so downstream copies
    never block on a producer that died.
    """
    spec, label = copy.spec, copy.label
    input_done = closing = False
    try:
        yield INIT, None
        receive = (RECV if spec.inputs else PRODUCE), None
        while (got := (yield receive)) is not None:
            if spec.inputs:
                report.buffers_in += 1
                if got.needs_ack and (yield ACK, got):
                    report.ack_messages += 1
            outputs = yield WORK, got
            for buffer in outputs:
                stream, dst = yield SEND, buffer
                report.sent(stream, copy.host, dst, buffer.nbytes)
        input_done = True
        outputs = yield FLUSH, None
        for buffer in outputs:
            stream, dst = yield SEND, buffer
            report.sent(stream, copy.host, dst, buffer.nbytes)
        value = yield FINISH, not spec.outputs
        if value is not None:
            report.result, report.has_result = value, True
    except GeneratorExit:
        closing = True  # its driver is gone: nothing more can be performed
        raise
    except BaseException:  # noqa: BLE001 - surfaced via the report
        report.error = f"{label} cycle {k}: {traceback.format_exc()}"
        # Keep participating in the close protocol so upstream puts never
        # block on a dead consumer.  Skipped if our share of the stream
        # already closed (an error in flush/finalize/result): no further
        # end-of-work will ever arrive.
        if spec.inputs and not input_done:
            try:
                while (wire := (yield RECV, None)) is not None:
                    yield DISCARD, wire
            except GeneratorExit:
                closing = True  # closed mid-drain: the same
                raise
    finally:
        if not closing:
            try:
                yield ANNOUNCE, None
            except GeneratorExit:
                raise  # closed at the announce: nothing to record
            except BaseException:  # noqa: BLE001 - surfaced via the report
                if report.error is None:
                    report.error = f"{label} cycle {k}: {traceback.format_exc()}"
            report.finished_at = clock()


def _trampoline(
    steps: Generator[Effect, Any, None], perform: dict[str, Callable[[Any], Any]],
    tracer: "Tracer | None", label: str, clock: Callable[[], float],
) -> None:
    """Drive a cycle to its end: answer each effect with ``perform``'s call,
    throw an effect that raises back into the cycle, and trace one span per
    effect performed."""
    value: Any = None
    thrown: "BaseException | None" = None
    while True:
        try:
            effect, arg = steps.send(value) if thrown is None else steps.throw(thrown)
        except StopIteration:
            return
        thrown = None
        t0 = clock() if tracer else 0.0
        try:
            value = perform[effect](arg)
        except BaseException as exc:  # noqa: BLE001 - the cycle reports it
            value, thrown = None, exc
        if tracer:
            detail = "" if thrown else span_detail(effect, value)
            tracer.record(t0, label, effect, detail, end=clock())


class _Unbuilt(Filter):
    """Stands in for a filter whose factory raised: every ``init`` fails."""

    def __init__(self, error: str) -> None:
        self.error = error

    def init(self, ctx: FilterContext) -> None:
        raise EngineError(self.error)


def _blocking(
    world: World,
    copy: CopyPlan,
    k: int,
    slot: int,
    uow: Any,
    instance: Filter,
    tracer: "Tracer | None",
    report: CycleReport,
) -> dict[str, Callable[[Any], Any]]:
    """Every effect of one cycle, performed by blocking (threads, forks).

    Sends stay inline: ``ctx.write`` is a blocking :meth:`Writer.send`
    inside ``handle`` / ``flush``, booked and traced as it happens, so work
    and flush return no buffers and a producer's sends overlap its
    consumers' work.  A traced receive samples its queue's depth.
    """
    spec, host, label = copy.spec, copy.host, copy.label
    clock, codec = world.clock, world.codec
    my_queue = world.copysets[spec.name][copy.set_idx][slot]
    writers: dict[str, Writer] = {}

    def write(stream: str, buffer: DataBuffer) -> None:
        t0 = clock() if tracer else 0.0
        target = writers[stream].send(buffer)
        report.sent(stream, host, target.host, buffer.nbytes)
        if tracer:
            detail = span_detail(SEND, (stream, target.host))
            tracer.record(t0, label, SEND, detail, end=clock())

    ctx = FilterContext(
        spec.name, host, copy.copy_index, copy.copies_on_host, copy.total,
        [st.name for st in spec.outputs], write, uow,
    )

    def init(_: None) -> None:
        if spec.outputs:
            world.arena(copy.cid).routers.clear()  # earlier cycles' acks go nowhere
        for st in spec.outputs:
            writers[st.name] = Writer(world, copy, k, slot, st, tracer)
        instance.init(ctx)

    def ack(wire: Envelope) -> bool:
        # The consumer closes the round trip, so it traces it, under the
        # producer's label.
        sent = world.acknowledge(wire)
        if sent and tracer:
            producer = world.plan[wire.producer].label
            tracer.record(wire.sent_at, producer, "acked", end=clock())
        return sent

    def work(wire: Envelope) -> tuple[DataBuffer, ...]:
        buffer: DataBuffer = wire.payload
        lease: "PayloadLease | None" = None
        if codec is not None:
            try:
                buffer, lease = codec.decode(wire.payload, world.arena_of(wire.payload))
            except BaseException:
                report.transport_fault = True
                raise
        t0 = time.perf_counter()
        try:
            instance.handle(ctx, buffer)
        finally:
            # Always, even when handle() raises: the lease holds the
            # extent, and the producer waits for it once its arena is full.
            if lease is not None:
                lease.release()
        report.busy_time += time.perf_counter() - t0
        return ()

    def flush(_: None) -> tuple[DataBuffer, ...]:
        t0 = time.perf_counter()
        instance.flush(ctx)
        report.busy_time += time.perf_counter() - t0
        return ()

    def recv(_: None) -> "Envelope | None":
        record = my_queue.recv()
        if record is None:
            return None
        if tracer:
            tracer.sample_queue(clock(), f"{spec.name}@{host}", my_queue.qsize())
        return world.envelope(record)

    def finish(wants_result: bool) -> Any:
        instance.finalize(ctx)
        return getattr(instance, "result", lambda: None)() if wants_result else None

    def announce(_: None) -> None:
        # Every downstream queue gets its marker, even past one that fails.
        failed: list[BaseException] = []
        for st in spec.outputs:
            for sets in world.copysets[st.dst]:
                try:
                    sets[slot].put(EOW)
                except BaseException as exc:  # noqa: BLE001 - raised below
                    failed.append(exc)
        if failed:
            raise failed[0]

    return {
        INIT: init,
        PRODUCE: lambda _: None,  # a real source writes from its flush
        RECV: recv,
        ACK: ack,
        WORK: work,
        FLUSH: flush,
        FINISH: finish,
        DISCARD: lambda wire: discard(wire, world),
        ANNOUNCE: announce,
    }


def run_copy(
    world: World,
    copy: CopyPlan,
    cycles: Iterable[Cycle],
    emit: Callable[[CycleReport], None],
) -> None:
    """One copy's whole life: build the filter, run every cycle, report each.

    ``cycles`` yields the units of work in order — a list for the threaded
    engine, a blocking generator over the control pipe for forked copies —
    and ``emit`` ships each cycle's report to whoever folds them.
    """
    instance: Filter = _Unbuilt(f"filter {copy.spec.name!r} failed to build")
    try:
        if copy.spec.factory is not None:  # engines check at construction
            instance = copy.spec.factory()
    except BaseException as exc:  # noqa: BLE001 - reported per cycle
        instance = _Unbuilt(f"filter {copy.spec.name!r} failed to build: {exc!r}")

    for k, slot, uow, trace_limit in cycles:
        # Copy-local tracer: same schema, merged (time-sorted) by the folder.
        tracer = (
            Tracer(limit=trace_limit, clock="wall")
            if trace_limit is not None
            else None
        )
        report = CycleReport(copy.cid, k)
        _trampoline(
            execute_cycle(copy, k, report, world.clock),
            _blocking(world, copy, k, slot, uow, instance, tracer, report),
            tracer, copy.label, world.clock,
        )
        if tracer is not None:
            report.events = tracer.events
            report.queue_samples = tracer.queue_samples
            report.dropped = tracer.dropped
        emit(report)


# -- folding reports ----------------------------------------------------------
def fold_cycle(
    reports: Iterable[CycleReport],
    plan: list[CopyPlan],
    time_offset: float = 0.0,
) -> tuple[RunMetrics, list[str]]:
    """Fold every copy's report of one cycle into a :class:`RunMetrics`.

    ``time_offset`` rebases the copies' timestamps (world clock) onto a
    per-query origin so a pooled query's makespan reads as its latency; it
    is 0 for a batch run.  Returns the metrics and the cycle's errors.
    """
    metrics = RunMetrics()
    metrics.ack_nbytes = DEFAULT_ACK_BYTES
    errors: list[str] = []
    for report in sorted(reports, key=lambda r: r.cid):
        copy = plan[report.cid]
        stats = metrics.new_copy(copy.spec.name, copy.host, copy.copy_index)
        stats.buffers_in = report.buffers_in
        stats.buffers_out = report.buffers_out
        stats.busy_time = report.busy_time
        stats.io_time = report.io_time
        stats.finished_at = report.finished_at - time_offset
        for (stream, src, dst), (count, nbytes) in sorted(
            report.stream_records.items()
        ):
            ss = metrics.streams[stream]
            ss.buffers += count
            ss.bytes += nbytes
            ss.by_route[(src, dst)] = ss.by_route.get((src, dst), 0) + count
            ss.by_dst_host[dst] = ss.by_dst_host.get(dst, 0) + count
        metrics.ack_messages += report.ack_messages
        metrics.ack_bytes += report.ack_messages * DEFAULT_ACK_BYTES
        if report.has_result:
            if metrics.result is None:
                metrics.result = report.result
            elif isinstance(metrics.result, list):
                metrics.result.append(report.result)
            else:
                metrics.result = [metrics.result, report.result]
        if report.error:
            errors.append(report.error)
    metrics.makespan = max((c.finished_at for c in metrics.copies), default=0.0)
    return metrics, errors


def merge_trace(
    tracer: "Tracer | None",
    reports: Iterable[CycleReport],
    time_offset: float = 0.0,
) -> None:
    """Merge the copies' local traces, time-sorted, into the caller's tracer."""
    if tracer is None:
        return
    reports = list(reports)
    for event in sorted(
        (e for r in reports for e in r.events), key=lambda e: e.time
    ):
        tracer.record(
            event.time - time_offset, event.copy, event.kind, event.detail,
            end=event.end - time_offset,
        )
    for sample in sorted(
        (s for r in reports for s in r.queue_samples), key=lambda s: s.time
    ):
        tracer.sample_queue(sample.time - time_offset, sample.queue, sample.depth)
    tracer.dropped += sum(r.dropped for r in reports)


def fold_batch(
    reports: list[CycleReport],
    plan: list[CopyPlan],
    ncycles: int,
    tracer: "Tracer | None",
    errors: Iterable[str] = (),
) -> list[RunMetrics]:
    """One :class:`RunMetrics` per cycle of a finished batch run.

    ``errors`` are the supervisor's own findings (dead workers), reported
    ahead of the copies'.  Healthy cycles fold fine even when others failed;
    their metrics ride the :class:`EngineError` alongside every error
    instead of being discarded.
    """
    errors = list(errors)
    by_cycle: list[list[CycleReport]] = [[] for _ in range(ncycles)]
    for report in reports:
        by_cycle[report.cycle].append(report)
    metrics_list = []
    for cycle_reports in by_cycle:
        metrics, cycle_errors = fold_cycle(cycle_reports, plan)
        metrics_list.append(metrics)
        errors.extend(cycle_errors)
    merge_trace(tracer, reports)
    if errors:
        raise copies_failed(errors, metrics_list)
    return metrics_list


def copies_failed(errors: list[str], metrics: list[Any]) -> EngineError:
    """The error of a run whose copies failed: the first failure quoted,
    every failure and the run's metrics (one per cycle) attached."""
    return EngineError(
        f"filter copy failed: {errors[0]}", metrics=metrics, errors=errors
    )
