"""The work-cycle runtime shared by the threaded, process and pool engines.

The paper's filter-stream protocol is written here exactly once:

- **copy-set queues** (:class:`CopySetQueue`) are bounded queues shared by
  all copies of a filter on one "host", closed *in band* — every producer
  enqueues an end-of-work marker behind its own data, and the consumer that
  pulls the final marker stops its siblings;
- **writers** (:class:`Writer`) run the RR / WRR / DD / RATE policies on the
  producer side, block while every window is full and are woken by
  acknowledgments;
- **one cycle** (:func:`execute_cycle`) is writers -> ``init`` -> receive /
  acknowledge / decode / ``handle`` -> ``flush`` -> ``finalize`` -> announce
  end-of-work, with a crash drain that keeps the close protocol alive when
  the filter raises;
- **one copy** (:func:`run_copy`) builds its filter once and runs a cycle per
  item of whatever iterator the engine feeds it: the threaded engine passes
  the units of work it was given, forked copies read a generator over their
  control queue;
- **one world** (:class:`World`) lays out copy sets x slots, the copy plan and
  the ack channels, and **one folder** (:func:`fold_cycle`,
  :func:`merge_trace`, :func:`fold_batch`) turns the copies' reports into
  :class:`~repro.core.instrument.RunMetrics` and a merged trace.

What differs between engines is a :class:`Transport` — the primitives a
world is built from — and the parent side: threads are just joined, forked
copies have one supervisor (``process.ForkedCopies``, batch run and warm
pool alike).  The simulated engine is not a client: its copies are
generator coroutines under the DES kernel and cannot call a blocking
runtime (DESIGN section 3b).

Payload lifetime contract: with a codec, an input buffer's arrays are
shared-memory views valid only during ``handle`` (the runtime releases the
lease when the callback returns, as DataCutter recycles stream buffers).
Filters that retain payload data must copy it.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.buffer import BufferCodec, DataBuffer, EncodedBuffer, PayloadLease
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph, FilterSpec
from repro.core.instrument import RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Target, WriterPolicy
from repro.core.tracing import QueueSample, TraceEvent, Tracer
from repro.errors import EngineError

__all__ = [
    "CopyPlan", "CopySetQueue", "CycleReport", "Envelope", "ProcessTransport",
    "STOP", "ThreadTransport", "Transport", "World", "Writer", "discard",
    "execute_cycle", "fold_batch", "fold_cycle", "merge_trace", "run_copy",
]

#: Queue sentinels; compared by equality because identity does not survive
#: pickling across a process boundary.
STOP = "__repro_eow_stop__"
_EOW = "__repro_eow_marker__"

#: One unit of work as a copy sees it: (cycle number, slot of the cycle ring,
#: unit-of-work descriptor, trace limit or ``None`` for an untraced cycle).
Cycle = tuple[int, int, Any, "int | None"]
#: cycle -> stream -> writer, one table per producing copy.
WriterTable = dict[int, dict[str, "Writer"]]
#: An acknowledgment on its way back: (cycle, stream, target index, sent_at).
AckMessage = tuple[int, str, int, float]


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

    def ack_channel(self) -> Any:
        """Something consumers ``put`` an :data:`AckMessage` on."""

    def serve_acks(self, channel: Any, writers: WriterTable) -> Callable[[], None]:
        """Deliver ``channel``'s acks to ``writers``; returns the stop call."""


def _deliver_ack(writers: WriterTable, msg: AckMessage) -> None:
    """Apply one acknowledgment to the writer that sent the buffer.

    Acks for a cycle whose writers are gone (finished batch cycle, recycled
    pool slot) are dropped harmlessly.
    """
    k, stream, target_index, sent_at = msg
    writer = writers.get(k, {}).get(stream)
    if writer is not None:
        writer.deliver_ack(target_index, sent_at)


class _Counter:
    """The thread transport's shared counter: a plain int behind ``.value``."""

    value = 0


class _DirectAcks:
    """The thread transport's ack channel: the consumer applies the ack."""

    def __init__(self) -> None:
        self.writers: WriterTable = {}

    def put(self, msg: AckMessage) -> None:
        _deliver_ack(self.writers, msg)


class ThreadTransport:
    """Copies are threads of this process: nothing needs to be serialised.

    Payloads travel by reference unless a codec is given (which proves a
    pipeline codec-clean before it moves to processes), and a consumer
    acknowledges by calling the producer's writer directly.
    """

    def __init__(self, codec: "BufferCodec | None") -> None:
        self.codec = codec

    def queue(self, capacity: int) -> Any:
        return queue.Queue(maxsize=capacity)

    def counter(self) -> Any:
        return _Counter()

    def lock(self) -> Any:
        return threading.Lock()

    def ack_channel(self) -> Any:
        return _DirectAcks()

    def serve_acks(self, channel: Any, writers: WriterTable) -> Callable[[], None]:
        channel.writers = writers
        return lambda: None


class ProcessTransport:
    """Copies are forked processes: everything shared is a ``multiprocessing``
    primitive, payloads cross through the codec (large arrays in shared
    memory under a small pickled header) and acknowledgments travel back
    over a per-producer ``SimpleQueue`` drained by a thread in the producer.
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

    def ack_channel(self) -> Any:
        return self.mp_ctx.SimpleQueue()

    def serve_acks(self, channel: Any, writers: WriterTable) -> Callable[[], None]:
        def loop() -> None:
            while True:
                msg = channel.get()
                if msg == STOP:
                    break
                _deliver_ack(writers, msg)

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()

        def stop() -> None:
            # FIFO sentinel: acks already queued still get delivered (and
            # traced) before the drain thread stops.
            channel.put(STOP)
            thread.join()

        return stop


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


def _release_payload(payload: Any) -> None:
    """Free the shared-memory segments of a payload nobody will decode."""
    if isinstance(payload, EncodedBuffer):
        BufferCodec.release_encoded(payload)


def _acknowledge(wire: Envelope, acks: list[Any]) -> bool:
    """Send ``wire``'s acknowledgment to its producer; False if none is due
    (filters whose outputs need no acks have no channel)."""
    channel = acks[wire.producer]
    if not wire.needs_ack or channel is None:
        return False
    channel.put((wire.cycle, wire.stream, wire.target_index, wire.sent_at))
    return True


def discard(wire: Envelope, acks: list[Any]) -> None:
    """Abandon one in-flight envelope: acknowledge it, then free it.

    The single helper behind every abandon path — a supervisor draining
    dead copy sets and a copy's own crash drain — so none can leak the
    envelope's shared-memory segments.  The ack reopens DD/RATE windows so
    producers blocked on the abandoned consumer wake up and finish.
    """
    _acknowledge(wire, acks)
    _release_payload(wire.payload)


class CopySetQueue:
    """Bounded queue shared by all copies of a filter on one host.

    End-of-work travels *through the data path*: ``multiprocessing.Queue.put``
    hands the item to a feeder thread asynchronously, so an out-of-band
    announcement could overtake the announcing producer's still-in-flight
    data and lose buffers.  Instead each finishing producer enqueues one
    marker behind its own data (per-producer FIFO holds), consumers count
    markers in a shared counter, and the consumer that pulls the final
    marker — at which point every producer's data has necessarily been
    pulled — fans one ``STOP`` out to each sibling copy and stops itself.
    """

    def __init__(
        self, transport: Transport, copies: int, expected_eow: int, capacity: int
    ) -> None:
        self.queue = transport.queue(capacity)
        self.copies = copies
        self.expected_eow = expected_eow
        self._eow_seen = transport.counter()
        self._lock = transport.lock()

    def put(self, item: Envelope) -> None:
        """Enqueue one envelope (blocks when the queue is full)."""
        self.queue.put(item)

    def producer_finished(self) -> None:
        """Announce this producer's end-of-work, behind all its data."""
        self.queue.put(_EOW)

    def recv(self) -> "Envelope | None":
        """Next envelope; ``None`` once this copy's share of the stream closed.

        Surplus markers (a supervisor re-announcing on behalf of a crashed
        producer that had in fact announced) are ignored.
        """
        while True:
            item = self.queue.get()
            if item == STOP:
                return None
            if item == _EOW:
                with self._lock:
                    if self._eow_seen.value >= self.expected_eow:
                        continue
                    self._eow_seen.value += 1
                    final = self._eow_seen.value == self.expected_eow
                if final:
                    for _ in range(self.copies - 1):
                        self.queue.put(STOP)
                    return None
                continue
            return item

    def queued(self) -> Iterator[Envelope]:
        """The envelopes queued right now, without blocking (supervisors
        discarding traffic nobody will consume); markers are dropped."""
        while True:
            try:
                item = self.queue.get_nowait()
            except Exception:  # noqa: BLE001 - Empty, or a killed worker's torn pipe
                return
            if item != STOP and item != _EOW:
                yield item

    def reset(self) -> None:
        """Rearm the end-of-work counter for a new unit of work.

        Only valid once the previous cycle has fully drained (every copy
        pulled its ``STOP`` or the final marker) — the warm pool recycles
        each slot's queues this way instead of allocating per cycle.
        """
        with self._lock:
            self._eow_seen.value = 0

    def qsize(self) -> int:
        """Approximate depth, or -1 where the platform cannot tell."""
        try:
            return int(self.queue.qsize())
        except NotImplementedError:  # pragma: no cover - macOS
            return -1


class Writer:
    """Producer-side router for one (copy, cycle, stream) triple.

    Acknowledgments arrive through :meth:`deliver_ack`, called by whatever
    the transport's ack path is: the consumer itself (threads) or the owning
    process's ack-drain thread.
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
    ) -> None:
        self.policy = policy
        self.copyset_queues = copyset_queues
        self.label = label
        self.clock = clock
        self.tracer = tracer
        self.codec = codec
        self.producer_cid = producer_cid
        self.cycle = cycle
        self.stream = stream
        self.targets = [
            Target(i, h, q.copies, local=(h == host))
            for i, (h, q) in enumerate(zip(hosts, copyset_queues))
        ]
        policy.bind(self.targets)
        self._cond = threading.Condition()

    def send(self, buffer: DataBuffer) -> Target:
        """Encode and route one buffer; blocks while DD windows are full."""
        payload = self.codec.encode(buffer) if self.codec is not None else buffer
        try:
            with self._cond:
                target = self.policy.route(buffer.tags)
                if target is None:
                    # All windows full: the writer stalls until an ack returns.
                    if self.tracer:
                        self.tracer.record(
                            self.clock(), self.label, "blocked", "start"
                        )
                    while target is None:
                        self._cond.wait()
                        target = self.policy.route(buffer.tags)
                    if self.tracer:
                        self.tracer.record(
                            self.clock(), self.label, "blocked", "end"
                        )
                self.policy.on_sent(target)
            needs_ack = self.policy.needs_ack
            envelope = Envelope(
                self.cycle, self.stream, self.producer_cid,
                target.index if needs_ack else -1,
                self.clock(), needs_ack, payload,
            )
            self.copyset_queues[target.index].put(envelope)
        except BaseException:
            # Abandoned mid-send — typically interrupted while blocked on a
            # full DD window.  The segments already exist (encode runs
            # first) and no consumer will ever see the envelope, so the
            # sender must release them or they leak past process exit.
            _release_payload(payload)
            raise
        return target

    def deliver_ack(self, target_index: int, sent_at: float) -> None:
        """Apply a consumer acknowledgment and wake blocked senders."""
        with self._cond:
            self.policy.on_ack(self.targets[target_index])
            self._cond.notify_all()
        if self.tracer:
            # Round-trip latency: producer send to ack delivery.
            now = self.clock()
            self.tracer.record(now, self.label, "ack", f"{now - sent_at:.9f}")


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


class World:
    """Everything the copies of one engine share.

    ``copysets[filter][set_idx][slot]`` holds one :class:`CopySetQueue` per
    (filter, host, slot); a batch run uses one slot per cycle so cycles
    pipeline without barriers, the warm pool a ring of ``max_inflight``.
    ``plan`` numbers the copies (``plan[cid].cid == cid``) and ``acks`` holds
    one ack channel per producing copy whose writers need them.  ``clock``
    is wall seconds since the world was built, on ``perf_counter`` —
    CLOCK_MONOTONIC on Linux, shared by all forked workers, so every copy's
    timestamps are directly comparable.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy_for: Callable[[str], PolicyFactory],
        transport: Transport,
        nslots: int,
        queue_capacity: int,
    ) -> None:
        self.policy_for = policy_for
        self.transport = transport
        self.nslots = nslots
        self.copysets: dict[str, list[list[CopySetQueue]]] = {}
        self.hosts: dict[str, list[str]] = {}
        self.plan: list[CopyPlan] = []
        self.acks: list[Any] = []
        for name, spec in graph.filters.items():
            expected = sum(placement.total_copies(s.src) for s in spec.inputs)
            needs_ack = any(policy_for(st.name)().needs_ack for st in spec.outputs)
            total = placement.total_copies(name)
            self.copysets[name] = []
            self.hosts[name] = []
            for set_idx, cs in enumerate(placement.copysets(name)):
                self.copysets[name].append(
                    [
                        CopySetQueue(transport, cs.copies, expected, queue_capacity)
                        for _ in range(nslots)
                    ]
                )
                self.hosts[name].append(cs.host)
                for copy_index in range(cs.copies):
                    self.plan.append(
                        CopyPlan(
                            len(self.plan), spec, cs.host, copy_index,
                            cs.copies, total, set_idx,
                        )
                    )
                    self.acks.append(transport.ack_channel() if needs_ack else None)
        self.t_start = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.t_start

    def queues(self, slot: "int | None" = None) -> Iterator[CopySetQueue]:
        """Every copy-set queue of one slot (default: of every slot)."""
        for sets in self.copysets.values():
            for per_set in sets:
                yield from per_set if slot is None else (per_set[slot],)


# -- one cycle, one copy ------------------------------------------------------
@dataclass
class CycleReport:
    """One copy's measurements (and trace) for one unit of work."""

    cid: int
    cycle: int
    buffers_in: int = 0
    buffers_out: int = 0
    busy_time: float = 0.0
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


def execute_cycle(
    world: World,
    copy: CopyPlan,
    k: int,
    slot: int,
    uow: Any,
    instance: "Filter | None",
    build_error: "str | None",
    tracer: "Tracer | None",
    writers_by_cycle: WriterTable,
) -> CycleReport:
    """Run one unit of work through one copy.

    The whole cycle protocol lives here — writers, init/handle/flush/
    finalize, end-of-work announcement, crash drain.  ``k`` is the global
    cycle number and ``slot`` the ring position whose queues it uses.  A
    failure is recorded in the report and end-of-work is still announced,
    so downstream copies never block on a producer that died.
    """
    spec, host, label = copy.spec, copy.host, copy.label
    clock, codec = world.clock, world.transport.codec
    my_queue = world.copysets[spec.name][copy.set_idx][slot]
    out_queues = {
        st.name: [sets[slot] for sets in world.copysets[st.dst]]
        for st in spec.outputs
    }
    report = CycleReport(copy.cid, k)
    announced = False
    input_done = False
    try:
        if instance is None:
            raise EngineError(
                build_error or f"filter {spec.name!r} failed to build"
            )
        writers = {
            st.name: Writer(
                host,
                world.policy_for(st.name)(),
                out_queues[st.name],
                world.hosts[st.dst],
                label=label,
                clock=clock,
                tracer=tracer,
                codec=codec,
                producer_cid=copy.cid,
                cycle=k,
                stream=st.name,
            )
            for st in spec.outputs
        }
        writers_by_cycle[k] = writers

        def write_fn(stream: str, buffer: DataBuffer) -> None:
            target = writers[stream].send(buffer)
            report.buffers_out += 1
            entry = report.stream_records.setdefault(
                (stream, host, target.host), [0, 0]
            )
            entry[0] += 1
            entry[1] += buffer.nbytes
            if tracer:
                tracer.record(clock(), label, "send", f"{stream}->{target.host}")

        ctx = FilterContext(
            filter_name=spec.name,
            host=host,
            copy_index=copy.copy_index,
            copies_on_host=copy.copies_on_host,
            total_copies=copy.total,
            output_streams=[st.name for st in spec.outputs],
            write_fn=write_fn,
            uow=uow,
        )
        instance.init(ctx)
        busy = 0.0
        if spec.inputs:
            while (wire := my_queue.recv()) is not None:
                report.buffers_in += 1
                if tracer:
                    tracer.record(clock(), label, "recv", wire.stream)
                    depth = my_queue.qsize()
                    if depth >= 0:
                        tracer.sample_queue(clock(), f"{spec.name}@{host}", depth)
                if _acknowledge(wire, world.acks):
                    report.ack_messages += 1
                buffer: DataBuffer = wire.payload
                lease: "PayloadLease | None" = None
                if codec is not None:
                    try:
                        buffer, lease = codec.decode(wire.payload)
                    except BaseException:
                        report.transport_fault = True
                        raise
                t0 = time.perf_counter()
                if tracer:
                    tracer.record(clock(), label, "compute", "start")
                try:
                    instance.handle(ctx, buffer)
                finally:
                    # Always, even when handle() raises: the lease holds the
                    # decoded shared-memory segment, and an abandoned one
                    # survives process exit.
                    if lease is not None:
                        lease.release()
                busy += time.perf_counter() - t0
                if tracer:
                    tracer.record(clock(), label, "compute", "end")
            input_done = True
        t0 = time.perf_counter()
        if tracer:
            tracer.record(clock(), label, "flush", "start")
        instance.flush(ctx)
        busy += time.perf_counter() - t0
        if tracer:
            tracer.record(clock(), label, "flush", "end")
        report.busy_time = busy
        instance.finalize(ctx)
        for queues in out_queues.values():
            for q in queues:
                q.producer_finished()
        announced = True
        if not spec.outputs:
            value = getattr(instance, "result", lambda: None)()
            if value is not None:
                report.result = value
                report.has_result = True
        if tracer:
            tracer.record(clock(), label, "done", f"cycle={k}")
    except BaseException:  # noqa: BLE001 - surfaced via the report
        report.error = f"{label} cycle {k}: {traceback.format_exc()}"
        # Keep participating in the close protocol so upstream puts never
        # block on a dead consumer (every producer eventually announces
        # end-of-work, even when it failed).  Skipped if our share of the
        # stream already closed — an error in flush/finalize/result — since
        # no further STOP will ever arrive.
        if spec.inputs and not input_done:
            while (wire := my_queue.recv()) is not None:
                discard(wire, world.acks)
    finally:
        if not announced:
            for queues in out_queues.values():
                for q in queues:
                    try:
                        q.producer_finished()
                    except BaseException:  # noqa: BLE001 - best effort
                        pass
        report.finished_at = clock()
    return report


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
    writers_by_cycle: WriterTable = {}
    channel = world.acks[copy.cid]
    stop_acks = (
        world.transport.serve_acks(channel, writers_by_cycle)
        if channel is not None
        else None
    )
    instance: "Filter | None" = None
    build_error = None
    try:
        if copy.spec.factory is not None:  # engines check at construction
            instance = copy.spec.factory()
    except BaseException as exc:  # noqa: BLE001 - reported per cycle
        build_error = f"filter {copy.spec.name!r} failed to build: {exc!r}"

    for k, slot, uow, trace_limit in cycles:
        # Copy-local tracer: same schema, merged (time-sorted) by the folder.
        tracer = (
            Tracer(limit=trace_limit, clock="wall")
            if trace_limit is not None
            else None
        )
        report = execute_cycle(
            world, copy, k, slot, uow, instance, build_error, tracer,
            writers_by_cycle,
        )
        # Writers older than the slot ring can no longer receive acks that
        # matter; prune so a long-lived copy stays bounded.
        for old in [c for c in writers_by_cycle if c <= k - world.nslots]:
            del writers_by_cycle[old]
        if tracer is not None:
            report.events = tracer.events
            report.queue_samples = tracer.queue_samples
            report.dropped = tracer.dropped
        emit(report)
    if stop_acks is not None:
        stop_acks()


# -- folding reports ----------------------------------------------------------
def fold_cycle(
    reports: Iterable[CycleReport],
    plan: list[CopyPlan],
    ack_nbytes: int,
    time_offset: float = 0.0,
) -> tuple[RunMetrics, list[str]]:
    """Fold every copy's report of one cycle into a :class:`RunMetrics`.

    ``time_offset`` rebases the copies' timestamps (world clock) onto a
    per-query origin so a pooled query's makespan reads as its latency; it
    is 0 for a batch run.  Returns the metrics and the cycle's errors.
    """
    metrics = RunMetrics()
    metrics.ack_nbytes = ack_nbytes
    errors: list[str] = []
    for report in sorted(reports, key=lambda r: r.cid):
        copy = plan[report.cid]
        stats = metrics.new_copy(copy.spec.name, copy.host, copy.copy_index)
        stats.buffers_in = report.buffers_in
        stats.buffers_out = report.buffers_out
        stats.busy_time = report.busy_time
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
        metrics.ack_bytes += report.ack_messages * ack_nbytes
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
            event.time - time_offset, event.copy, event.kind, event.detail
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
    ack_nbytes: int,
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
        metrics, cycle_errors = fold_cycle(cycle_reports, plan, ack_nbytes)
        metrics_list.append(metrics)
        errors.extend(cycle_errors)
    merge_trace(tracer, reports)
    if errors:
        raise EngineError(
            f"filter copy failed: {errors[0]}",
            metrics=metrics_list,  # type: ignore[arg-type]
            errors=errors,
        )
    return metrics_list
