"""Warm filter-host pools: persistent worker processes serving queries.

``ProcessEngine.run()`` cold-spawns one OS process per transparent copy,
rebuilds every filter instance and allocates fresh copy-set queues for
every run — fatal for serving traffic, where the pipeline is fixed and
only the unit of work changes per query.  :class:`WarmPool` keeps the
copies alive: it forks the workers once, then feeds successive units of
work over per-worker control queues, generalising the ``run_cycles``
protocol from "N cycles known up front" to "cycles arrive over time".

Mechanics
---------
The pool allocates ``max_inflight`` *slots*; each slot owns one
:class:`~repro.engines.runtime.CopySetQueue` per (filter, host),
exactly as a batch ``run_cycles(uows)`` call owns one queue per (filter,
host, cycle).  Cycle ``k`` runs in slot ``k % max_inflight``: up to
``max_inflight`` queries pipeline through the filters concurrently, and a
slot is recycled (end-of-work counters rearmed) only after every copy has
reported cycle ``k`` — so its queues are provably drained.  Workers run
the same copy loop as the batch engines
(:func:`~repro.engines.runtime.run_copy`), fed by an iterator that blocks
in ``control.get()`` between queries, and ship one report per cycle.

The parent-side supervisor blocks in ``multiprocessing.connection.wait``
on the worker sentinels; an unexpected worker death marks the pool
*broken*, fails every pending query, terminates the siblings and drains
abandoned traffic through the runtime's ack-and-release helper so no
shared-memory segment outlives the pool.  A copy that could not decode an
input payload (a mapped file gone or cut short under it) fails its query
with the error it raised and breaks the pool the same way.  Idle pools
are retired by their owner: :class:`PoolManager` closes one that has had no
work in flight for its ``idle_timeout`` (:meth:`WarmPool.idle_seconds`).

Payload lifetime contract: unchanged from the process engine — an input
buffer's arrays are shared-memory views valid only during ``handle``; the
segments themselves are per-payload and are released by the consuming
copy, so nothing about pooling extends a lease across queries.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import open_wall_trace
from repro.engines.process import START_METHOD, ProcessEngine
from repro.engines.runtime import (
    STOP,
    CycleReport,
    discard,
    fold_cycle,
    merge_trace,
    run_copy,
)
from repro.errors import EngineError

__all__ = ["PendingQuery", "PoolManager", "WarmPool"]


class PendingQuery:
    """Future-like handle for one unit of work submitted to a warm pool."""

    def __init__(self, cycle: int, tracer: "Tracer | None", t0: float):
        self.cycle = cycle
        self.tracer = tracer
        self.t0 = t0  # pool-clock timestamp of the submit (trace origin)
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

    # First outcome wins: the collector resolves, a pool break fails — a
    # query racing both must not flip after callers have seen it done.
    def _succeed(self, metrics: RunMetrics) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._metrics = metrics
            self._done.set()

    def _fail(self, error: EngineError) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._error = error
            self._done.set()


class WarmPool(ProcessEngine):
    """A :class:`ProcessEngine` whose copies outlive any single run.

    Construction validates and forks immediately (the pool is warm once
    ``__init__`` returns); ``submit`` enqueues one unit of work and
    ``run``/``run_cycles`` provide the blocking batch API on top.  Use as a
    context manager or call :meth:`close` — the workers are daemonic, but
    an explicit close delivers queued DD acks and joins the ack threads
    before the processes exit.

    Additional parameter over the process engine:

    ``max_inflight``
        Slots in the cycle ring — how many queries may pipeline through
        the filters concurrently (submits beyond that block).
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: "str | PolicyFactory" = "DD",
        policy_overrides: "dict[str, str | PolicyFactory] | None" = None,
        queue_capacity: int = 8,
        ack_nbytes: int = DEFAULT_ACK_BYTES,
        codec=None,
        max_inflight: int = 2,
    ):
        super().__init__(
            graph,
            placement,
            policy=policy,
            policy_overrides=policy_overrides,
            queue_capacity=queue_capacity,
            ack_nbytes=ack_nbytes,
            tracer=None,
            codec=codec,
        )
        if max_inflight < 1:
            raise EngineError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.cycles_completed = 0
        self._spawn()

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self) -> None:
        mp_ctx = multiprocessing.get_context(START_METHOD)
        nslots = self.max_inflight
        # Slots play the role cycles play in the batch engine's layout.
        world = self._world = self._build_world(mp_ctx, nslots)
        self._controls = [mp_ctx.SimpleQueue() for _ in world.plan]
        self._results = mp_ctx.SimpleQueue()

        self._lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._pending: dict[int, PendingQuery] = {}
        self._next_cycle = 0
        self._slot_free = [threading.Event() for _ in range(nslots)]
        for ev in self._slot_free:
            ev.set()
        self._closed = False
        self._broken = False
        self._break_reason: "str | None" = None
        self._transport_fault: "str | None" = None
        self._closing = threading.Event()
        self._shutdown_done = threading.Event()
        self._last_activity = time.monotonic()
        self.created_at = time.monotonic()
        self._wake_recv, self._wake_send = mp_ctx.Pipe(duplex=False)

        self._procs = {
            copy.cid: mp_ctx.Process(
                target=run_copy,
                # Cycles arrive over the control queue until close() says STOP.
                args=(
                    world, copy, iter(self._controls[copy.cid].get, STOP),
                    self._results.put,
                ),
                name=f"pool:{copy.label}",
                daemon=True,
            )
            for copy in world.plan
        }
        for proc in self._procs.values():
            proc.start()

        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True, name="warmpool-collector"
        )
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, daemon=True, name="warmpool-supervisor"
        )
        self._supervisor.start()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def usable(self) -> bool:
        """True while the pool accepts new work."""
        with self._lock:
            return not self._closed

    @property
    def busy(self) -> bool:
        """True while at least one query is in flight.

        Eviction decisions (:class:`PoolManager`) must not close a busy
        pool — ``close()`` blocks on the in-flight queries, so closing a
        busy pool under a manager lock stalls every other caller.
        """
        with self._lock:
            return bool(self._pending)

    def idle_seconds(self) -> float:
        """Seconds since the pool last had work in flight (0.0 while busy)."""
        with self._lock:
            if self._pending:
                return 0.0
            return time.monotonic() - self._last_activity

    def stats(self) -> dict:
        """A snapshot for service dashboards (``repro serve`` ``stats``)."""
        with self._lock:
            return {
                "workers": len(self._procs),
                "max_inflight": self.max_inflight,
                "inflight": len(self._pending),
                "cycles_completed": self.cycles_completed,
                "closed": self._closed,
                "broken": self._broken,
                "age_s": time.monotonic() - self.created_at,
            }

    # -- submission ----------------------------------------------------------
    def submit(
        self, uow: Any = None, tracer: "Tracer | None" = None
    ) -> PendingQuery:
        """Enqueue one unit of work on the warm copies.

        Blocks while all ``max_inflight`` slots are busy (bounded admission
        is the caller's concern — ``repro serve`` rejects upstream).  The
        optional per-query ``tracer`` receives the query's events with
        timestamps rebased to the submit, so its timeline and the returned
        metrics' makespan read as end-to-end query latency.
        """
        with self._submit_lock:
            self._check_open()
            k = self._next_cycle
            slot_free = self._slot_free[k % self.max_inflight]
            while not slot_free.wait(timeout=0.5):
                self._check_open()
            self._check_open()
            slot_free.clear()
            self._next_cycle += 1
            trace_limit = open_wall_trace(tracer, self._analysis_report)
            pending = PendingQuery(k, tracer, t0=self._world.clock())
            with self._lock:
                self._pending[k] = pending
                self._last_activity = time.monotonic()
            for control in self._controls:
                control.put((k, k % self.max_inflight, uow, trace_limit))
            return pending

    def run(self) -> RunMetrics:
        """Submit one unit of work and block for it (``Engine`` API)."""
        return self.submit(None).result()

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Batch counterpart of ``ProcessEngine.run_cycles`` on warm copies.

        Failed cycles contribute their partial metrics and errors to one
        ``EngineError`` (same contract as the batch engines); the metrics
        list then holds ``None`` at positions whose merge never happened.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        pendings = [self.submit(uow) for uow in uows]
        metrics_list: list = []
        errors: list[str] = []
        for pending in pendings:
            try:
                metrics_list.append(pending.result())
            except EngineError as exc:
                metrics_list.append(exc.metrics[0] if exc.metrics else None)
                errors.extend(exc.errors or [str(exc)])
        if errors:
            raise EngineError(
                f"filter copy failed: {errors[0]}",
                metrics=metrics_list,
                errors=errors,
            )
        return metrics_list

    def _check_open(self) -> None:
        with self._lock:
            if self._broken:
                raise EngineError(f"warm pool is broken: {self._break_reason}")
            if self._closed:
                raise EngineError("warm pool is closed")

    # -- parent-side threads -------------------------------------------------
    def _collect_loop(self) -> None:
        """Merge per-cycle worker reports; recycle slots as queries finish."""
        while (report := self._results.get()) != STOP:
            k = report.cycle
            with self._lock:
                pending = self._pending.get(k)
                if pending is None:
                    continue  # failed by a pool break while in flight
                pending.reports.append(report)
                complete = len(pending.reports) == len(self._procs)
            if complete:
                self._finish_cycle(k, pending)

    def _finish_cycle(self, k: int, pending: PendingQuery) -> None:
        metrics, errors = fold_cycle(
            pending.reports, self._world.plan, self.ack_nbytes,
            time_offset=pending.t0,
        )
        merge_trace(pending.tracer, pending.reports, time_offset=pending.t0)

        # Recycle the slot: every copy has reported cycle k, so the slot's
        # queues are drained; rearm the end-of-work counters before the
        # next submit can route a cycle into them.
        slot = k % self.max_inflight
        for csq in self._world.queues(slot):
            csq.reset()
        with self._lock:
            self._pending.pop(k, None)
            self._last_activity = time.monotonic()
            self.cycles_completed += 1
        self._slot_free[slot].set()
        if errors:
            pending._fail(
                EngineError(
                    f"filter copy failed: {errors[0]}",
                    metrics=[metrics],
                    errors=errors,
                )
            )
        else:
            pending._succeed(metrics)
        fault = next((r for r in pending.reports if r.transport_fault), None)
        if fault is not None:
            # A payload that could not be decoded — a mapped file gone or
            # cut short — means the copies may hold mappings of damaged
            # storage, where the next touch is a SIGBUS: retire them all.
            # The supervisor owns the teardown (it joins this thread).
            self._transport_fault = (
                f"{self._world.plan[fault.cid].label} could not decode its "
                f"input in cycle {k}"
            )
            self._wake_send.send(b"x")

    def _supervise_loop(self) -> None:
        """Block on worker sentinels; break the pool on unexpected death.

        Same no-polling contract as ``ProcessEngine._supervise``: while the
        workers are healthy this thread sleeps in the kernel (the wake pipe
        exists so ``close()`` can retire it).
        """
        sentinels = {p.sentinel: c for c, p in self._procs.items()}
        waitables = list(sentinels) + [self._wake_recv]
        while True:
            ready = multiprocessing.connection.wait(waitables)
            if self._closing.is_set():
                return
            if self._wake_recv in ready:
                while self._wake_recv.poll():
                    self._wake_recv.recv()
                if self._transport_fault is not None:
                    # Every copy has reported the faulty cycle, so each is
                    # between cycles or finishing another query: let them
                    # leave by themselves.  A copy terminated while it
                    # still holds the result queue's lock would wedge the
                    # teardown; the break only terminates stragglers.
                    for control in self._controls:
                        control.put(STOP)
                    for proc in self._procs.values():
                        proc.join(timeout=10.0)
                    self._break_pool(self._transport_fault)
                    return
                continue
            dead_cid = sentinels[
                next(s for s in ready if s is not self._wake_recv)
            ]
            proc = self._procs[dead_cid]
            proc.join()
            self._break_pool(
                f"pool worker {self._world.plan[dead_cid].label} died "
                f"with exit code {proc.exitcode}"
            )
            return

    def _break_pool(self, reason: str) -> None:
        """Unexpected worker death: fail everything, reap, free segments."""
        with self._lock:
            self._broken = True
            self._closed = True
            self._break_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join()
        self._results.put(STOP)
        self._collector.join()
        self._drain_all_slots()
        error = EngineError(f"warm pool is broken: {reason}", errors=[reason])
        for query in pending:
            query._fail(error)
        for slot_free in self._slot_free:
            slot_free.set()  # wake blocked submitters into _check_open
        self._shutdown_done.set()

    def _drain_all_slots(self) -> None:
        """Discard abandoned traffic so no shared-memory segment leaks."""
        for csq in self._world.queues():
            for wire in csq.queued():
                discard(wire, self._world.acks)

    def close(self) -> None:
        """Drain in-flight queries, then retire the workers.

        Close-while-busy is graceful: new submits are rejected first, every
        pending query runs to completion, and each worker delivers its
        queued DD acks (FIFO ``STOP`` through the ack queue) and joins its
        ack thread before exiting.  Idempotent; concurrent callers block
        until shutdown finishes.
        """
        with self._submit_lock:
            with self._lock:
                already = self._closed
                self._closed = True
        if already:
            self._shutdown_done.wait()
            return
        with self._lock:
            pending = list(self._pending.values())
        for query in pending:
            query.wait()
        self._closing.set()
        try:
            self._wake_send.send(b"x")
        except (OSError, ValueError):  # pragma: no cover - already torn down
            pass
        self._supervisor.join()
        if not self._broken:
            for control in self._controls:
                control.put(STOP)
            for proc in self._procs.values():
                proc.join(timeout=10.0)
            for proc in self._procs.values():
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join()
            self._results.put(STOP)
            self._collector.join()
            self._drain_all_slots()
        self._shutdown_done.set()


class _PoolBuild:
    """Per-key cold-build latch: one builder, any number of waiters."""

    __slots__ = ("done", "error", "pool")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.pool: "WarmPool | None" = None
        self.error: "BaseException | None" = None


class PoolManager:
    """Keyed cache of warm pools for a query service.

    Pools are keyed by pipeline identity — the caller supplies a hashable
    key covering (graph, placement, policy, codec), typically the tuple of
    scene/configuration parameters that built them.  ``get`` returns the
    warm pool on a hit and builds (cold) on a miss; at most ``max_pools``
    stay warm, evicting least-recently-used, and ``reap_idle`` closes pools
    idle past ``idle_timeout`` (also swept on every ``get``).

    Lifecycle contracts (each one a former bug):

    - ``pool.close()`` is **never** called under the manager lock — close
      blocks on in-flight queries, so a close under the lock would stall
      every concurrent ``get``.
    - Eviction skips **busy** pools: the LRU *idle* pool is closed; when
      every pool is busy, eviction defers and the manager temporarily
      exceeds ``max_pools`` (it shrinks back on later calls) rather than
      tearing a query out from under a caller.
    - Cold builds (fork + filter construction) run **outside** the lock
      behind a per-key latch: two misses on one key still build once,
      and a cold start no longer serialises unrelated warm hits.
    - Dead pools found during a sweep are closed defensively before
      being dropped, so a broken pool's shared-memory ledger is released
      even when nobody else ever touched it again.
    """

    def __init__(self, max_pools: int = 4, idle_timeout: "float | None" = None):
        if max_pools < 1:
            raise EngineError(f"max_pools must be >= 1, got {max_pools}")
        self.max_pools = max_pools
        self.idle_timeout = idle_timeout
        self._pools: "OrderedDict[Any, WarmPool]" = OrderedDict()
        self._building: "dict[Any, _PoolBuild]" = {}
        self._lock = threading.Lock()

    def get(self, key: Any, build) -> "tuple[WarmPool, bool]":
        """Return ``(pool, created)`` for ``key``, building on a miss.

        ``created`` is True when this call cold-built the pool (the first
        query pays fork + filter construction; subsequent ones are warm).
        A concurrent miss on the same key blocks on the first caller's
        build instead of building twice; a build failure is re-raised to
        every waiter.
        """
        while True:
            to_close: list[WarmPool] = []
            with self._lock:
                self._sweep_locked(to_close)
                pool = self._pools.get(key)
                if pool is not None and pool.usable:
                    self._pools.move_to_end(key)
                    self._shrink_locked(to_close, protect=key)
                    self._close_later(to_close)
                    return pool, False
                if pool is not None:
                    del self._pools[key]
                    to_close.append(pool)
                latch = self._building.get(key)
                if latch is None:
                    latch = _PoolBuild()
                    self._building[key] = latch
                    builder = True
                else:
                    builder = False
            self._close_now(to_close)
            if not builder:
                latch.done.wait()
                if latch.error is not None:
                    raise latch.error
                pool = latch.pool
                if pool is not None and pool.usable:
                    return pool, False
                continue  # builder's pool died immediately; start over
            return self._build_locked_out(key, latch, build), True

    def _build_locked_out(self, key: Any, latch: _PoolBuild, build) -> WarmPool:
        """Run one cold build outside the lock; publish through the latch."""
        try:
            pool = build()
        except BaseException as exc:
            with self._lock:
                self._building.pop(key, None)
            latch.error = exc
            latch.done.set()
            raise
        to_close: list[WarmPool] = []
        with self._lock:
            self._pools[key] = pool
            self._pools.move_to_end(key)
            self._building.pop(key, None)
            self._shrink_locked(to_close, protect=key)
        latch.pool = pool
        latch.done.set()
        self._close_now(to_close)
        return pool

    # -- sweeping and eviction (under the lock; closes deferred) ------------
    def _sweep_locked(self, to_close: "list[WarmPool]") -> None:
        """Drop dead and idle-expired pools; queue them for closing.

        Dead pools (``not usable``) are closed *defensively* — a broken
        pool normally cleaned up when it broke, but close is idempotent
        and this is the last line of defence for its shm ledger.
        """
        for key in list(self._pools):
            pool = self._pools[key]
            if not pool.usable:
                del self._pools[key]
                to_close.append(pool)
            elif (
                self.idle_timeout is not None
                and pool.idle_seconds() >= self.idle_timeout
            ):
                del self._pools[key]
                to_close.append(pool)

    def _shrink_locked(
        self, to_close: "list[WarmPool]", protect: Any
    ) -> None:
        """Evict LRU **idle** pools down to ``max_pools``; defer on busy.

        ``protect`` (the key just returned or inserted) is never a
        victim.  Busy pools are skipped — a pool with a query in flight
        stays out of the victim set, so capacity pressure can leave the
        manager temporarily over budget until the traffic drains.
        """
        if len(self._pools) <= self.max_pools:
            return
        for key in list(self._pools):  # OrderedDict: LRU first
            if len(self._pools) <= self.max_pools:
                return
            if key == protect:
                continue
            pool = self._pools[key]
            if pool.busy:
                continue  # deferred: never evict a pool mid-query
            del self._pools[key]
            to_close.append(pool)

    def _close_now(self, pools: "list[WarmPool]") -> None:
        for pool in pools:
            pool.close()

    def _close_later(self, pools: "list[WarmPool]") -> None:
        """Close evicted pools without blocking the warm-hit fast path."""
        if not pools:
            return
        threading.Thread(
            target=self._close_now, args=(pools,), daemon=True,
            name="poolmanager-close",
        ).start()

    def reap_idle(self) -> None:
        """Close and drop pools idle past ``idle_timeout`` (and dead ones)."""
        to_close: list[WarmPool] = []
        with self._lock:
            self._sweep_locked(to_close)
        self._close_now(to_close)

    def close_all(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    def stats(self) -> dict:
        with self._lock:
            pools = list(self._pools.items())
        return {str(key): pool.stats() for key, pool in pools}

    def __len__(self) -> int:
        with self._lock:
            return len(self._pools)
