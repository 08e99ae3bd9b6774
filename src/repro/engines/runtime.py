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
  is full until a consumer counts an ack up in the producer's arena;
- **one copy** (:func:`run_copy`) builds its filter once and runs a cycle per
  item of whatever iterator the engine feeds it, performing every effect by
  blocking: the threaded engine passes the units of work it was given,
  forked copies read a generator over their control queue;
- **one plan** (:func:`copy_plan`) numbers the copies of every engine,
  **one world** (:class:`World`) lays out the real engines' copy sets x
  slots and each producing copy's arena, and **one folder**
  (:func:`fold_cycle`, :func:`merge_trace`, :func:`fold_batch`) turns the
  copies' reports into :class:`~repro.core.instrument.RunMetrics` and a
  merged trace.

What differs between the real engines is a :class:`Transport` — the
primitives a world is built from — and the parent side: threads are just
joined, forked copies have one supervisor (``process.ForkedCopies``, batch
run and warm pool alike).

Payload lifetime contract: with a codec, an input buffer's arrays are
views into the producer's arena valid only during ``handle`` (the runtime
releases the lease when the callback returns, as DataCutter recycles stream
buffers, and the producer then reuses the bytes).  Filters that retain
payload data must copy it.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
import traceback
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.buffer import Arena, BufferCodec, DataBuffer, EncodedBuffer, PayloadLease
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph, FilterSpec
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Router, Target, WriterPolicy
from repro.core.tracing import QueueSample, TraceEvent, Tracer
from repro.errors import EngineError

__all__ = [
    "ACK", "ANNOUNCE", "COUNTED", "DATA", "DISCARD", "EOW", "FINAL", "FINISH",
    "FLUSH", "INIT", "PRODUCE", "RECV", "SEND", "STOP", "SURPLUS", "WORK",
    "CloseCount", "CopyPlan", "CopySetQueue", "CycleReport", "Envelope",
    "ProcessTransport", "ThreadTransport", "Transport", "World", "Writer",
    "copies_failed", "copy_plan", "discard",
    "execute_cycle", "fold_batch", "fold_cycle", "merge_trace", "run_copy",
    "span_detail",
]

#: Queue sentinels; compared by equality because identity does not survive
#: pickling across a process boundary.
STOP = "__repro_eow_stop__"
EOW = "__repro_eow_marker__"
#: Counting an item that is not a marker needs no lock.
_UNLOCKED = contextlib.nullcontext()

#: One unit of work as a copy sees it: (cycle number, slot of the cycle ring,
#: unit-of-work descriptor, trace limit or ``None`` for an untraced cycle).
Cycle = tuple[int, int, Any, "int | None"]


# -- transports ---------------------------------------------------------------
class Transport(Protocol):
    """The primitives one engine's world is built from."""

    #: Payload carrier; ``None`` passes buffers by reference.
    codec: "BufferCodec | None"

    def queue(self, capacity: int) -> Any:
        """A bounded FIFO with ``put`` / ``get`` / ``get_nowait`` / ``qsize``."""

    def counter(self) -> Any:
        """An int behind ``.value``, shared by every copy."""

    def lock(self) -> Any:
        """A mutual-exclusion context manager shared by every copy."""

    def arena(self, owner: int, counters: int) -> Arena:
        """Copy ``owner``'s arena with ``counters`` ack counters, shared by
        every copy."""


class _Counter:
    """The thread transport's shared counter: a plain int behind ``.value``."""

    value = 0


class ThreadTransport:
    """Copies are threads of this process: nothing needs to be serialised.

    Payloads travel by reference unless a codec is given (which proves a
    pipeline codec-clean before it moves to processes).
    """

    def __init__(self, codec: "BufferCodec | None") -> None:
        self.codec = codec

    def queue(self, capacity: int) -> Any:
        return queue.Queue(maxsize=capacity)

    def counter(self) -> Any:
        return _Counter()

    def lock(self) -> Any:
        return threading.Lock()

    def arena(self, owner: int, counters: int) -> Arena:
        return Arena(owner, counters=counters)


class ProcessTransport:
    """Copies are forked processes: everything shared is a ``multiprocessing``
    primitive and payloads cross through the codec (large arrays in the
    producer's arena, mapped before the fork, under a small pickled header).
    """

    def __init__(self, mp_ctx: Any, codec: BufferCodec) -> None:
        self.mp_ctx = mp_ctx
        self.codec: "BufferCodec | None" = codec

    def queue(self, capacity: int) -> Any:
        return self.mp_ctx.Queue(maxsize=capacity)

    def counter(self) -> Any:
        return self.mp_ctx.Value("i", 0, lock=False)

    def lock(self) -> Any:
        return self.mp_ctx.Lock()

    def arena(self, owner: int, counters: int) -> Arena:
        return Arena(owner, self.mp_ctx.Lock(), self.mp_ctx.Semaphore(0), counters)


# -- the wire -----------------------------------------------------------------
class Envelope:
    """One stream buffer on the wire between two copies."""

    __slots__ = (
        "cycle", "stream", "producer", "target_index", "sent_at",
        "needs_ack", "payload",
    )

    def __init__(
        self,
        cycle: int,
        stream: str,
        producer: int,
        target_index: int,
        sent_at: float,
        needs_ack: bool,
        payload: Any,
    ) -> None:
        self.cycle = cycle
        self.stream = stream
        self.producer = producer  # global copy id of the sender
        self.target_index = target_index
        self.sent_at = sent_at
        self.needs_ack = needs_ack
        #: An EncodedBuffer, or the DataBuffer itself when no codec runs.
        self.payload = payload

    def __getstate__(self) -> tuple[Any, ...]:
        return tuple(getattr(self, s) for s in self.__slots__)

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        for slot, value in zip(self.__slots__, state):
            setattr(self, slot, value)


def _acknowledge(wire: Envelope, world: "World") -> bool:
    """Count ``wire``'s acknowledgment up in its producer's arena; False if
    none is due."""
    if not wire.needs_ack:
        return False
    world.arena(wire.producer).acknowledge(
        world.ack_counter(wire.producer, wire.cycle, wire.stream) + wire.target_index
    )
    return True


def discard(wire: Envelope, world: "World") -> None:
    """Abandon one in-flight envelope: acknowledge it, then free it.

    The single helper behind every abandon path — a supervisor draining
    dead copy sets and a copy's own crash drain — so none can keep the
    envelope's arena extent from its owner.  The ack reopens DD windows so
    producers blocked on the abandoned consumer wake up and finish.
    """
    _acknowledge(wire, world)
    codec = world.transport.codec
    if codec is not None:
        codec.release_encoded(wire.payload, world.arena_of(wire.payload))


#: What one queued item means to the copy that pulled it (:class:`CloseCount`).
DATA = "data"  # an envelope: work on it
COUNTED = "counted"  # a marker, not the last: keep receiving
SURPLUS = "surplus"  # a marker past the last one (a supervisor's): ignore it
FINAL = "final"  # the last marker: stop, and owe each sibling copy a STOP


class CloseCount:
    """The close of one copy set, without I/O: queued items in, what each
    means out.  Each of ``expected`` producer copies puts one :data:`EOW`
    behind its data, so the copy that pulls the last has seen all the data
    pulled; it owes each of its ``copies - 1`` siblings a :data:`STOP`.
    ``seen`` is the transport's counter (a plain int or a shared ``Value``,
    behind ``.value``); a caller shared by copies counts under its lock.
    """

    __slots__ = ("copies", "expected", "seen")

    def __init__(self, copies: int, expected: int, seen: Any = None) -> None:
        self.copies = copies
        self.expected = expected
        self.seen = seen if seen is not None else _Counter()

    def take(self, item: Any) -> tuple[str, int]:
        """``(meaning, STOPs owed)`` of one queued item: ``(DATA, 0)``,
        ``(STOP, 0)``, ``(COUNTED, 0)``, ``(SURPLUS, 0)`` or ``(FINAL, n)``."""
        if item == STOP:
            return STOP, 0
        if item != EOW:
            return DATA, 0
        if self.seen.value >= self.expected:
            return SURPLUS, 0
        self.seen.value += 1
        if self.seen.value < self.expected:
            return COUNTED, 0
        return FINAL, self.copies - 1


class CopySetQueue:
    """Bounded queue shared by all copies of a filter on one host.

    End-of-work travels *through the data path*: ``multiprocessing.Queue.put``
    hands the item to a feeder thread asynchronously, so an out-of-band
    announcement could overtake the announcing producer's still-in-flight
    data and lose buffers.  Instead each finishing producer enqueues one
    marker behind its own data (per-producer FIFO holds), and the copies
    read every item through one :class:`CloseCount`.
    """

    def __init__(
        self, transport: Transport, copies: int, expected_eow: int, capacity: int
    ) -> None:
        self.queue = transport.queue(capacity)
        self.copies = copies
        self.close = CloseCount(copies, expected_eow, transport.counter())
        self._lock = transport.lock()

    def put(self, item: Envelope) -> None:
        """Enqueue one envelope (blocks when the queue is full)."""
        self.queue.put(item)

    def producer_finished(self) -> None:
        """Announce this producer's end-of-work, behind all its data."""
        self.queue.put(EOW)

    def recv(self) -> "Envelope | None":
        """Next envelope; ``None`` once this copy's share of the stream closed.

        Surplus markers (a supervisor re-announcing on behalf of a crashed
        producer that had in fact announced) are ignored.
        """
        while True:
            item = self.queue.get()
            with self._lock if item == EOW else _UNLOCKED:
                meaning, owed = self.close.take(item)
            if meaning == DATA:
                return item
            for _ in range(owed):
                self.queue.put(STOP)
            if meaning in (STOP, FINAL):
                return None

    def queued(self) -> Iterator[Envelope]:
        """The envelopes queued right now, without blocking (supervisors
        discarding traffic nobody will consume); markers are dropped."""
        while True:
            try:
                item = self.queue.get_nowait()
            except Exception:  # noqa: BLE001 - Empty, or a killed worker's torn pipe
                return
            if item != STOP and item != EOW:
                yield item

    def reset(self) -> None:
        """Rearm the end-of-work count for a new unit of work.

        Only valid once the previous cycle has fully drained (every copy
        pulled its ``STOP`` or the final marker) — the warm pool recycles
        each slot's queues this way instead of allocating per cycle.
        """
        with self._lock:
            self.close.seen.value = 0

    def qsize(self) -> int:
        """Approximate depth, or -1 where the platform cannot tell."""
        try:
            return int(self.queue.qsize())
        except NotImplementedError:  # pragma: no cover - macOS
            return -1


class Writer:
    """Producer-side sender for one (copy, cycle, stream) triple.

    Consumers acknowledge by counting up its counters in the producing
    copy's ``arena``, one per target copy set from index ``acks_at``; it
    turns each increase into as many ``Router.ack`` calls before it routes.
    """

    def __init__(
        self,
        host: str,
        policy: WriterPolicy,
        copyset_queues: list[CopySetQueue],
        hosts: list[str],
        label: str,
        clock: Callable[[], float],
        tracer: "Tracer | None",
        codec: "BufferCodec | None",
        producer_cid: int,
        cycle: int,
        stream: str,
        arena: Arena,
        acks_at: int = 0,
    ) -> None:
        self.copyset_queues = copyset_queues
        self.label = label
        self.clock = clock
        self.tracer = tracer
        self.codec = codec
        self.producer_cid = producer_cid
        self.cycle = cycle
        self.stream = stream
        self.router = Router(
            host, [(h, q.copies) for h, q in zip(hosts, copyset_queues)], policy
        )
        self.arena = arena
        self._acks = arena.acks[acks_at:acks_at + len(copyset_queues)]
        # Every ack of the slot's earlier cycles landed before this cycle
        # was handed out, so these counters hold still until it sends.
        self._seen: list[int] = self._acks.tolist()

    def _route(self) -> "Target | None":
        """Apply the acks counted since the last look, then route one buffer
        (under the arena lock); ``None`` while every window is full."""
        acked: list[int] = self._acks.tolist()
        for index, (now, seen) in enumerate(zip(acked, self._seen)):
            for _ in range(now - seen):
                self.router.ack(index)
        self._seen = acked
        return self.router.route()

    def send(self, buffer: DataBuffer) -> Target:
        """Encode and route one buffer; blocks while the copy's arena or
        every DD window is full — one wait, on the arena's bell."""
        payload: Any = buffer
        if self.codec is not None:
            try:
                payload = self.codec.encode(buffer, self.arena)
            except EngineError as exc:  # a payload larger than the arena
                raise EngineError(
                    f"{self.label} cycle {self.cycle} stream {self.stream!r}: {exc}"
                ) from None
        try:
            t0 = self.clock() if self.tracer else 0.0
            target, stalled = self.arena.wait(self._route)
            if stalled and self.tracer:
                self.tracer.record(t0, self.label, "blocked", end=self.clock())
            needs_ack = self.router.policy.needs_ack
            envelope = Envelope(
                self.cycle, self.stream, self.producer_cid,
                target.index if needs_ack else -1,
                self.clock(), needs_ack, payload,
            )
            self.copyset_queues[target.index].put(envelope)
        except BaseException:
            # Abandoned mid-send — typically interrupted while blocked on a
            # full DD window.  The extent is already placed (encode runs
            # first) and no consumer will ever see the envelope, so the
            # sender gives it back itself.
            if self.codec is not None:
                self.codec.release_encoded(payload, self.arena)
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
    """Everything the copies of one engine share.

    ``copysets[filter][set_idx][slot]`` holds one :class:`CopySetQueue` per
    (filter, host, slot); a batch run uses one slot per cycle so cycles
    pipeline without barriers, the warm pool a ring of ``max_inflight``.
    ``plan`` numbers the copies (:func:`copy_plan`) and ``arenas`` holds one
    arena per producing copy — made here, before any fork — with its
    payload space and one ack counter per (slot, output stream, target copy
    set), the layout :meth:`ack_counter` reads.  ``clock``
    is wall seconds since the world was built, on ``perf_counter`` —
    CLOCK_MONOTONIC on Linux, shared by all forked workers, so every copy's
    timestamps are directly comparable.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: PolicyFactory,
        transport: Transport,
        nslots: int,
        queue_capacity: int,
    ) -> None:
        self.policy = policy
        self.transport = transport
        self.nslots = nslots
        self.copysets: dict[str, list[list[CopySetQueue]]] = {}
        self.hosts: dict[str, list[str]] = {}
        for name, spec in graph.filters.items():
            expected = sum(placement.total_copies(s.src) for s in spec.inputs)
            sets = placement.copysets(name)
            self.copysets[name] = [
                [CopySetQueue(transport, cs.copies, expected, queue_capacity)
                 for _ in range(nslots)]
                for cs in sets
            ]
            self.hosts[name] = [cs.host for cs in sets]
        self.plan = copy_plan(graph, placement)
        #: Per copy: its output streams' first counters in slot 0, and the
        #: counters of one slot.
        self._ack_layout: list[tuple[dict[str, int], int]] = []
        for copy in self.plan:
            first: dict[str, int] = {}
            per_slot = 0
            for st in copy.spec.outputs:
                first[st.name] = per_slot
                per_slot += len(self.hosts[st.dst])
            self._ack_layout.append((first, per_slot))
        self.arenas: list["Arena | None"] = [
            transport.arena(copy.cid, nslots * per_slot) if copy.spec.outputs else None
            for copy, (_, per_slot) in zip(self.plan, self._ack_layout)
        ]
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

    def ack_counter(self, cid: int, cycle: int, stream: str) -> int:
        """Index, in copy ``cid``'s arena, of the ack counter for cycle
        ``cycle``'s ``stream`` to its first target copy set; the others
        follow in target order.  Cycle ``k`` runs in slot ``k % nslots``."""
        first, per_slot = self._ack_layout[cid]
        return cycle % self.nslots * per_slot + first[stream]

    def queues(self, slot: "int | None" = None) -> Iterator[CopySetQueue]:
        """Every copy-set queue of one slot (default: of every slot)."""
        for sets in self.copysets.values():
            for per_set in sets:
                yield from per_set if slot is None else (per_set[slot],)


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
    clock, codec = world.clock, world.transport.codec
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
        for st in spec.outputs:
            writers[st.name] = Writer(
                host, world.policy(),
                [sets[slot] for sets in world.copysets[st.dst]], world.hosts[st.dst],
                label, clock, tracer, codec, copy.cid, k, st.name,
                world.arena(copy.cid), world.ack_counter(copy.cid, k, st.name),
            )
        instance.init(ctx)

    def ack(wire: Envelope) -> bool:
        # The consumer closes the round trip, so it traces it, under the
        # producer's label.
        sent = _acknowledge(wire, world)
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
        wire = my_queue.recv()
        if tracer and wire is not None and (depth := my_queue.qsize()) >= 0:
            tracer.sample_queue(clock(), f"{spec.name}@{host}", depth)
        return wire

    def finish(wants_result: bool) -> Any:
        instance.finalize(ctx)
        return getattr(instance, "result", lambda: None)() if wants_result else None

    def announce(_: None) -> None:
        # Every downstream queue gets its marker, even past one that fails.
        failed: list[BaseException] = []
        for st in spec.outputs:
            for sets in world.copysets[st.dst]:
                try:
                    sets[slot].producer_finished()
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
    engine, a blocking generator over the control queue for forked copies —
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
