"""Process-parallel execution engine: real filters, one process per copy.

Each transparent copy becomes a worker in a ``multiprocessing`` pool-of-one
(one ``Process`` per copy), so filter compute runs genuinely in parallel on
multicore hosts — the paper's transparent-copy speedups become measurable
instead of GIL-serialised (contrast :class:`repro.engines.threaded.
ThreadedEngine`, which keeps the same protocol but shares one interpreter).

The work-cycle protocol is the shared runtime's
(:mod:`repro.engines.runtime`), over its kernel pipes; this module supplies
the one parent side of forked copies, :class:`ForkedCopies` — spawn, one
parent thread for reports, deaths, the abandon path and the close.  A batch
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

import faulthandler
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
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
    PendingQuery,
    World,
    discard,
    fold_query,
    results,
    run_copy,
)
from repro.errors import EngineError

__all__ = ["ForkedCopies", "LEAVE_BOUND", "ProcessEngine", "START_METHOD"]

#: The ``multiprocessing`` start method of every worker (see above).
START_METHOD = "fork"

#: Seconds copies get to leave by themselves — the survivors of an abandoned
#: world, or workers whose last query resolved with their stop sent — before
#: the parent thread terminates them.
LEAVE_BOUND = 10.0


class ForkedCopies:
    """The parent side of one world of forked copies.

    :meth:`start` forks one worker per copy over a world of ``nslots`` slots;
    :meth:`submit` feeds them units of work — cycles submitted before the
    fork ride it (no pickling, and the first copy works while its siblings
    are still being forked), later ones arrive over per-worker control
    pipes, ``None`` saying stop.  Cycle ``k`` runs in slot ``k % nslots``,
    and a slot is recycled only once every copy has reported cycle ``k`` —
    so its queues are provably drained and its end-of-work tokens refilled.
    Once started, one parent thread sleeps in one ``connection.wait`` on
    every worker's sentinel and report pipe — no timeout, no polling, while
    every worker is healthy — folds each complete cycle
    (:func:`~repro.engines.runtime.fold_query`), counting it in
    ``cycles_completed``, and, once every worker is gone, closes what the
    world opened, keeping each worker's exit code in ``exitcodes`` (by copy
    id).  Cycles submitted before the fork take the world's start as their
    origin (a batch run), later ones their submit.

    A worker that dies without running its cleanup (segfault, kill) would
    leave consumers waiting for end-of-work and producers blocked on a queue
    nobody drains.  The parent thread then *abandons* the world, in this order:
    fail every pending query, naming the dead copy; let the survivors leave
    by themselves — end-of-work announced on the dead copy's behalf, traffic
    aimed at copy sets with no live member discarded (acknowledged and its
    extents given back), a stop on every control pipe; wait for them under
    :data:`LEAVE_BOUND`; have each straggler dump its stack to stderr, terminate
    it and drain every slot.
    A cycle that could not decode an input payload (a mapped file gone or
    cut short) abandons the world the same way, and so does :meth:`abandon`
    from outside.
    """

    def __init__(self, engine: "ProcessEngine", nslots: int) -> None:
        self.mp_ctx = multiprocessing.get_context(START_METHOD)
        world = self.world = World(
            engine.graph, engine.placement, engine._policy, BufferCodec(),
            nslots, engine.queue_capacity,
        )
        #: Per worker: (read end, write end) of its control and report pipes.
        self.controls = [self.mp_ctx.Pipe(duplex=False) for _ in world.plan]
        self.reports = [self.mp_ctx.Pipe(duplex=False) for _ in world.plan]
        self.lock = threading.Lock()
        self.submit_lock = threading.Lock()
        self.pending: dict[int, PendingQuery] = {}
        self.next_cycle = 0
        self.cycles_completed = 0
        self.slot_free = [threading.Event() for _ in range(nslots)]
        for slot_free in self.slot_free:
            slot_free.set()
        self.closed = False
        #: Why the world was abandoned (empty while it is healthy).
        self.errors: list[str] = []
        self._wake_recv, self._wake_send = self.mp_ctx.Pipe(duplex=False)
        #: Cycles submitted before the fork; ``None`` once started.
        self._first: "list[tuple] | None" = []

    def start(self) -> None:
        """Fork the workers; start the parent thread."""
        world = self.world
        first, self._first = self._first, None
        self.procs = {
            copy.cid: self.mp_ctx.Process(
                target=_run_forked,
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
        self._thread = threading.Thread(
            target=self._supervise, daemon=True, name="copies-supervisor"
        )
        self._thread.start()

    def submit(
        self, uow: Any, trace_limit: "int | None", tracer: "Tracer | None" = None
    ) -> PendingQuery:
        """Enqueue one unit of work; blocks while every slot is busy."""
        with self.submit_lock:
            k = self.next_cycle
            slot = k % self.world.nslots
            self.slot_free[slot].wait()  # an abandoned world frees them all
            t0 = 0.0 if self._first is not None else self.world.clock()
            pending = PendingQuery(k, tracer, t0)
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
        """Have the parent thread abandon the world (see the class docstring)."""
        with self.lock:
            if not self._wake_send.closed:
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
            self._thread.join(LEAVE_BOUND)
            if self._thread.is_alive() and not self.errors:
                self.abandon("workers ignored their stop")
        self._thread.join()

    # -- the parent thread ---------------------------------------------------
    def _supervise(self) -> None:
        """Book reports and deaths; abandon the world on a death; once every
        worker is gone, close what the world opened."""
        world, live = self.world, dict(self.procs)
        members: dict[tuple[str, int], list[int]] = {}
        for copy in world.plan:
            members.setdefault((copy.spec.name, copy.set_idx), []).append(copy.cid)
        deadline = None  # set once the world is abandoned
        while live and (deadline is None or time.monotonic() < deadline):
            # Sentinels before report pipes: a worker seen dead here has its
            # last report readable too, and its death waits for its reports.
            ready = set(multiprocessing.connection.wait(
                [proc.sentinel for proc in live.values()]
                + [self.reports[cid][0] for cid in live] + [self._wake_recv],
                timeout=None if deadline is None else 0.05,
            ))
            if self._wake_recv in ready:
                self._wake_recv.recv()
            for cid, proc in list(live.items()):
                if self.reports[cid][0] in ready:
                    self._book(self.reports[cid][0].recv())
                elif proc.sentinel in ready:
                    del live[cid]
                    proc.join()
                    if proc.exitcode == 0 and self.closed and all(
                        any(r.cid == cid for r in query.reports)
                        for query in self.pending.values()
                    ):
                        continue  # left on its stop, every cycle reported
                    copy = world.plan[cid]
                    self.errors.append(
                        f"worker process {copy.label} died with exit code {proc.exitcode}"
                    )
                    for st in copy.spec.outputs:
                        for csq in chain.from_iterable(world.copysets[st.dst]):
                            csq.put(EOW)  # on its behalf; a marker takes no credit
            if self.errors and deadline is None:
                deadline = time.monotonic() + LEAVE_BOUND
                self._fail_pending()
            if deadline is not None:
                for (name, set_idx), cids in members.items():
                    if not any(cid in live for cid in cids):
                        for csq in world.copysets[name][set_idx]:
                            self._drain(csq)
        if deadline is not None:
            for proc in live.values():  # a straggler: its stack to stderr, then the end
                os.kill(proc.pid, signal.SIGUSR1)
                proc.join(0.2)
                proc.terminate()
                proc.join()
            for csq in world.queues():
                self._drain(csq)
        world.close()
        with self.lock:  # against a late abandon's send
            for conn in chain(*self.controls, *self.reports, [self._wake_recv, self._wake_send]):
                conn.close()
        self.exitcodes = {cid: proc.exitcode for cid, proc in self.procs.items()}
        for proc in self.procs.values():
            proc.close()

    def _book(self, report: CycleReport) -> None:
        """Add one worker's report; fold a complete cycle."""
        k = report.cycle
        with self.lock:
            pending = self.pending.get(k)
            if pending is None:
                return  # failed with the world while in flight
            pending.reports.append(report)
            if len(pending.reports) < len(self.world.plan):
                return
            del self.pending[k]
        # Every copy has reported cycle k, so the slot's queues are drained
        # and its end-of-work tokens refilled.
        self.slot_free[k % self.world.nslots].set()
        self.cycles_completed += 1
        plan = self.world.plan
        fold_query(pending, plan)
        fault = next((r for r in pending.reports if r.transport_fault), None)
        if fault is not None:
            # A payload that could not be decoded — a mapped file gone or
            # cut short — means the copies may hold mappings of damaged
            # storage, where the next touch is a SIGBUS: retire them all.
            # Every copy has reported the faulty cycle, so each is between
            # cycles or finishing another one and can leave by itself.
            self.abandon(
                f"{plan[fault.cid].label} could not decode its input in cycle {k}"
            )

    def _fail_pending(self) -> None:
        with self.lock:
            self.closed = True
            pending = list(self.pending.values())
            self.pending.clear()
        for query in pending:
            fold_query(query, self.world.plan, self.errors[:1])
        for slot_free in self.slot_free:
            slot_free.set()  # wake blocked submitters into the refusal
        with self.submit_lock:  # the control pipes' one writer at a time
            for _, control in self.controls:
                control.send(None)

    def _drain(self, csq: CopySetQueue) -> None:
        """Discard abandoned traffic, giving every extent back."""
        for record in csq.queued():
            discard(self.world.envelope(record), self.world)


def _run_forked(*args: Any) -> None:
    """:func:`run_copy` in a worker that dumps its stack on SIGUSR1."""
    faulthandler.register(signal.SIGUSR1, file=2, all_threads=True)
    run_copy(*args)


class ProcessEngine(Engine):
    """Execute a filter graph with real filters and one process per copy.

    Parameters mirror :class:`repro.engines.threaded.ThreadedEngine`
    (graph, placement, writer policy, queue capacity, ack accounting,
    tracer).  Payloads cross between processes through one
    :class:`~repro.core.buffer.BufferCodec` and the copies' arenas.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        queue_capacity: int = 8,
        tracer: "Tracer | None" = None,
    ):
        self._policy = make_policy_factory(policy)
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
        copies = ForkedCopies(self, len(uows))
        trace_limit = open_wall_trace(self.tracer, self._analysis_report)
        pendings = [copies.submit(uow, trace_limit, self.tracer) for uow in uows]
        copies.start()
        copies.close()
        return results(pendings)
