"""Process-parallel execution engine: real filters, one process per copy.

Each transparent copy becomes a worker in a ``multiprocessing`` pool-of-one
(one ``Process`` per copy), so filter compute runs genuinely in parallel on
multicore hosts — the paper's transparent-copy speedups become measurable
instead of GIL-serialised (contrast :class:`repro.engines.threaded.
ThreadedEngine`, which keeps the same protocol but shares one interpreter).

The work-cycle protocol is the shared runtime's
(:mod:`repro.engines.runtime`), over its kernel pipes; this module supplies
the one parent side of forked copies, :class:`ForkedCopies` — spawn,
collector, supervisor and the abandon path for a copy that dies.  A batch
``run_cycles(uows)`` is that mechanism used once (a world of ``len(uows)``
slots, every cycle submitted before the fork, a stop sent behind the
last); a :class:`~repro.engines.pool.WarmPool` is the same mechanism kept,
its units of work arriving over the control pipes (so they must pickle).

- **pipes only**: copies talk through the runtime's kernel pipes of
  fixed-size records — copy-set queues, each producer's answer pipe, one
  control and one report pipe per worker — so no copy ever holds a lock
  another needs, and a copy that dies wedges none of its siblings;
- **one back-channel per producer**: each producing copy has an
  :class:`~repro.core.buffer.Arena`, one anonymous shared mapping made by
  the parent before the fork.  The shared
  :class:`repro.core.buffer.BufferCodec` copies large NumPy arrays and the
  small pickled header into it, and the consumer reads them in place and
  gives the extent back after ``handle``.  No named shared-memory object
  (nor the resource tracker that watches them) exists;
- **observability** feeds the same :class:`~repro.core.tracing.Tracer` /
  :class:`~repro.core.instrument.RunMetrics` layer: every worker records
  spans and counters locally and ships them to the parent per cycle,
  where they merge into one run-relative wall-clock trace — ``repro trace``
  and ``RunMetrics.validate`` work unchanged.

The engine needs the ``fork`` start method: filter factories are closures
over datasets and cameras, which fork inherits for free and no other start
method can carry.  On platforms without fork use the threaded engine.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from collections.abc import Callable
from itertools import chain
from typing import Any

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, make_policy_factory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, open_wall_trace, validate_run_setup
from repro.engines.runtime import (
    EOW,
    CopySetQueue,
    CycleReport,
    World,
    discard,
    fold_batch,
    run_copy,
)
from repro.errors import EngineError

__all__ = [
    "ForkedCopies", "LEAVE_BOUND", "PendingQuery", "ProcessEngine",
    "START_METHOD",
]

#: The ``multiprocessing`` start method of every worker (see above).
START_METHOD = "fork"

#: Seconds copies get to leave by themselves — the survivors of an abandoned
#: world, or workers whose last query resolved with their stop sent — before
#: the supervisor terminates them.
LEAVE_BOUND = 10.0


class PendingQuery:
    """Future-like handle for one unit of work submitted to forked copies."""

    def __init__(self, cycle: int, tracer: "Tracer | None", t0: float):
        self.cycle = cycle
        self.tracer = tracer
        self.t0 = t0  # world-clock timestamp of the submit (trace origin)
        self.reports: list[CycleReport] = []
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._metrics: "RunMetrics | None" = None
        self._error: "EngineError | None" = None

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: "float | None" = None) -> RunMetrics:
        """Block until the query finishes; its metrics, or raise its error."""
        if not self._done.wait(timeout):
            raise EngineError(
                f"query (cycle {self.cycle}) still running after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._metrics is not None
        return self._metrics

    def _resolve(
        self,
        metrics: "RunMetrics | None" = None,
        error: "EngineError | None" = None,
    ) -> None:
        # First outcome wins: the collector resolves, the supervisor fails —
        # a query racing both must not flip after callers have seen it done.
        with self._lock:
            if not self._done.is_set():
                self._metrics, self._error = metrics, error
                self._done.set()


class ForkedCopies:
    """The parent side of one world of forked copies.

    :meth:`start` forks one worker per copy over a world of ``nslots`` slots;
    :meth:`submit` feeds them units of work — cycles submitted before the
    fork ride it (no pickling, and the first copy works while its siblings
    are still being forked), later ones arrive over per-worker control
    pipes, ``None`` saying stop.  Cycle ``k`` runs in slot ``k % nslots``,
    and a slot is recycled only once every copy has reported cycle ``k`` —
    so its queues are provably drained and its end-of-work tokens refilled.
    Once started, a collector thread waits on every worker's report pipe
    and hands each complete cycle to ``on_cycle``; a supervisor thread
    sleeps in one ``multiprocessing.connection.wait`` on the worker
    sentinels — no timeout, no polling, while every worker is healthy.

    A worker that dies without running its cleanup (segfault, kill) would
    leave consumers waiting for end-of-work and producers blocked on a queue
    nobody drains.  The supervisor then *abandons* the world, in this order:
    fail every pending query, naming the dead copy; let the survivors leave
    by themselves — end-of-work announced on the dead copy's behalf, traffic
    aimed at copy sets with no live member discarded (acknowledged and its
    extents given back), a stop on every control pipe; wait for them under
    :data:`LEAVE_BOUND`; terminate the stragglers and drain every slot.
    :meth:`abandon` asks for the same from outside.
    """

    def __init__(
        self,
        engine: "ProcessEngine",
        nslots: int,
        on_cycle: "Callable[[PendingQuery], None]",
    ) -> None:
        self.mp_ctx = multiprocessing.get_context(START_METHOD)
        world = self.world = World(
            engine.graph, engine.placement, engine._policy, engine.codec,
            nslots, engine.queue_capacity,
        )
        self.on_cycle = on_cycle
        #: Per worker: (read end, write end) of its control and report pipes.
        self.controls = [self.mp_ctx.Pipe(duplex=False) for _ in world.plan]
        self.reports = [self.mp_ctx.Pipe(duplex=False) for _ in world.plan]
        self.lock = threading.Lock()
        self.submit_lock = threading.Lock()
        self.pending: dict[int, PendingQuery] = {}
        self.next_cycle = 0
        self.slot_free = [threading.Event() for _ in range(nslots)]
        for slot_free in self.slot_free:
            slot_free.set()
        self.closed = False
        #: Why the world was abandoned (empty while it is healthy).
        self.errors: list[str] = []
        self.done = threading.Event()
        self._wake_recv, self._wake_send = self.mp_ctx.Pipe(duplex=False)
        self._stop_recv, self._stop_send = self.mp_ctx.Pipe(duplex=False)
        #: Cycles submitted before the fork; ``None`` once started.
        self._first: "list[tuple] | None" = []

    def start(self) -> None:
        """Fork the workers; start the collector and the supervisor."""
        world = self.world
        first, self._first = self._first, None
        self.procs = {
            copy.cid: self.mp_ctx.Process(
                target=run_copy,
                # What was submitted before the fork, then whatever arrives
                # over the control pipe until it says stop.
                args=(
                    world, copy,
                    chain(first, iter(self.controls[copy.cid][0].recv, None)),
                    self.reports[copy.cid][1].send,
                ),
                name=copy.label,
                daemon=True,
            )
            for copy in world.plan
        }
        for proc in self.procs.values():
            proc.start()
        # Reports must drain concurrently: a worker's send can exceed the
        # pipe buffer and would deadlock a join-first parent.
        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True, name="copies-collector"
        )
        self._collector.start()
        threading.Thread(
            target=self._supervise_loop, daemon=True, name="copies-supervisor"
        ).start()

    def submit(
        self, uow: Any, trace_limit: "int | None", tracer: "Tracer | None" = None
    ) -> PendingQuery:
        """Enqueue one unit of work; blocks while every slot is busy."""
        with self.submit_lock:
            k = self.next_cycle
            slot = k % self.world.nslots
            self.slot_free[slot].wait()  # an abandoned world frees them all
            pending = PendingQuery(k, tracer, t0=self.world.clock())
            with self.lock:
                if self.closed:
                    raise EngineError(
                        f"worker copies are broken: {self.errors[0]}"
                        if self.errors else "worker copies are closed"
                    )
                self.pending[k] = pending
                self.slot_free[slot].clear()
            self.next_cycle += 1
            if self._first is not None:
                self._first.append((k, slot, uow, trace_limit))
            else:
                for _, control in self.controls:
                    control.send((k, slot, uow, trace_limit))
            return pending

    def abandon(self, reason: str) -> None:
        """Have the supervisor abandon the world (see the class docstring)."""
        self.errors.append(reason)
        self._wake_send.send(b"x")

    def close(self) -> None:
        """Send a stop behind the last cycle; wait until the world is gone.

        Close-while-busy is graceful: new submits are rejected first, every
        pending query runs to completion, and each worker leaves on the
        stop behind its last cycle while the parent is still collecting.
        Idempotent; concurrent callers block until shutdown finishes.
        """
        with self.submit_lock:
            with self.lock:
                already, self.closed = self.closed, True
                pending = list(self.pending.values())
            if not already:
                for _, control in self.controls:
                    control.send(None)
        if not already:
            for query in pending:
                query.wait()
            if not self.done.wait(LEAVE_BOUND) and not self.errors:
                self.abandon("workers ignored their stop")
        self.done.wait()

    # -- parent-side threads -------------------------------------------------
    def _collect_loop(self) -> None:
        """Gather per-cycle worker reports, until stopped with none left;
        recycle slots as cycles finish."""
        conns = [recv for recv, _ in self.reports]
        while ready := [
            conn for conn in multiprocessing.connection.wait(conns + [self._stop_recv])
            if conn is not self._stop_recv
        ]:
            for report in (conn.recv() for conn in ready):
                k = report.cycle
                with self.lock:
                    pending = self.pending.get(k)
                    if pending is None:
                        continue  # failed by the supervisor while in flight
                    pending.reports.append(report)
                    if len(pending.reports) < len(self.world.plan):
                        continue
                    del self.pending[k]
                # Every copy has reported cycle k, so the slot's queues are
                # drained and its end-of-work tokens refilled.
                self.slot_free[k % self.world.nslots].set()
                self.on_cycle(pending)

    def _supervise_loop(self) -> None:
        """Block on the worker sentinels; abandon the world on a death."""
        world, live = self.world, dict(self.procs)
        copy_of = {live[copy.cid].sentinel: copy for copy in world.plan}
        members: dict[tuple[str, int], list[int]] = {}
        for copy in world.plan:
            members.setdefault((copy.spec.name, copy.set_idx), []).append(copy.cid)
        deadline = None  # set once the world is abandoned
        while live and (deadline is None or time.monotonic() < deadline):
            ready = multiprocessing.connection.wait(
                [proc.sentinel for proc in live.values()] + [self._wake_recv],
                timeout=None if deadline is None else 0.05,
            )
            for sentinel in ready:
                if sentinel is self._wake_recv:
                    self._wake_recv.recv()
                    continue
                copy = copy_of[sentinel]
                proc = live.pop(copy.cid)
                proc.join()
                if proc.exitcode == 0 and self.closed:
                    continue  # left on its stop
                self.errors.append(
                    f"worker process {copy.label} died with exit code "
                    f"{proc.exitcode}"
                )
                for st in copy.spec.outputs:
                    for sets in world.copysets[st.dst]:
                        for csq in sets:
                            csq.put(EOW)  # on its behalf; a marker takes no credit
            if self.errors and deadline is None:
                deadline = time.monotonic() + LEAVE_BOUND
                self._fail_pending()
            if deadline is not None:
                for (name, set_idx), cids in members.items():
                    if not any(cid in live for cid in cids):
                        for csq in world.copysets[name][set_idx]:
                            self._drain(csq)
        self._stop_send.send(None)
        self._collector.join()
        if deadline is not None:
            for proc in live.values():  # the stragglers
                proc.terminate()
                proc.join()
            for csq in world.queues():
                self._drain(csq)
        world.close()
        self.done.set()

    def _fail_pending(self) -> None:
        with self.lock:
            self.closed = True
            pending = list(self.pending.values())
            self.pending.clear()
        reason = self.errors[0]
        error = EngineError(f"worker copies are broken: {reason}", errors=[reason])
        for query in pending:
            query._resolve(error=error)
        for slot_free in self.slot_free:
            slot_free.set()  # wake blocked submitters into the refusal
        with self.submit_lock:  # the control pipes' one writer at a time
            for _, control in self.controls:
                control.send(None)

    def _drain(self, csq: CopySetQueue) -> None:
        """Discard abandoned traffic, giving every extent back."""
        for record in csq.queued():
            discard(self.world.envelope(record), self.world)


class ProcessEngine(Engine):
    """Execute a filter graph with real filters and one process per copy.

    Parameters mirror :class:`repro.engines.threaded.ThreadedEngine`
    (graph, placement, writer policy, queue capacity, ack accounting,
    tracer); additionally:

    ``codec``
        The :class:`~repro.core.buffer.BufferCodec` moving payloads between
        processes (default: arrays >= 64 KiB through the copies' arenas).
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        queue_capacity: int = 8,
        tracer: "Tracer | None" = None,
        codec: "BufferCodec | None" = None,
    ):
        self._policy = make_policy_factory(policy)
        self.codec = codec or BufferCodec()
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "process",
            policy=self._policy,
        )
        if START_METHOD not in multiprocessing.get_all_start_methods():
            raise EngineError(
                f"start method {START_METHOD!r} unavailable on this platform "
                f"(have {multiprocessing.get_all_start_methods()}); the "
                f"process engine needs fork for closure factories — use the "
                f"threaded engine instead"
            )
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.tracer = tracer

    def run(self) -> RunMetrics:
        """Execute one unit of work; blocks until all copies finish."""
        return self.run_cycles([None])[0]

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run consecutive units of work through persistent filter copies.

        The work-cycle protocol of ``ThreadedEngine.run_cycles``, with each
        copy a long-lived worker process: one filter instance per copy, one
        ``init``/``handle``/``flush``/``finalize`` pass per unit of work,
        cycles pipelining freely — a world of ``len(uows)`` slots, every
        cycle submitted before the fork and a stop sent behind the last.
        Returns one :class:`RunMetrics` per unit of work.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        copies = ForkedCopies(self, len(uows), PendingQuery._resolve)
        trace_limit = open_wall_trace(self.tracer, self._analysis_report)
        pendings = [copies.submit(uow, trace_limit) for uow in uows]
        copies.start()
        copies.close()
        return fold_batch(
            [report for pending in pendings for report in pending.reports],
            copies.world.plan, len(uows), self.tracer,
            errors=copies.errors,
        )
