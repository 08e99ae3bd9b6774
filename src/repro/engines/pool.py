"""Warm filter-host pools: persistent worker processes serving queries.

``ProcessEngine.run()`` cold-spawns one OS process per transparent copy,
rebuilds every filter instance and allocates fresh copy-set queues for
every run — fatal for serving traffic, where the pipeline is fixed and
only the unit of work changes per query.  :class:`WarmPool` keeps the
copies alive: it forks the workers once, then feeds successive units of
work over per-worker control queues — the batch engine's own mechanism
(:class:`~repro.engines.process.ForkedCopies`, which a batch run uses once
and closes), with "N cycles known up front" become "cycles arrive over
time".

Mechanics
---------
The pool's world has ``max_inflight`` *slots*; each slot owns one
:class:`~repro.engines.runtime.CopySetQueue` per (filter, host),
exactly as a batch ``run_cycles(uows)`` call owns one queue per (filter,
host, cycle).  Cycle ``k`` runs in slot ``k % max_inflight``: up to
``max_inflight`` queries pipeline through the filters concurrently, and a
slot is recycled only after every copy has reported cycle ``k``.  What the
pool adds is per query: each complete cycle is folded and its trace merged
on the query's own clock (origin = the submit), and the pool keeps the
counters its owner reads.

An unexpected worker death marks the pool *broken*: every pending query
fails at once with the dead copy's label and exit code, and the copies are
abandoned the one way forked copies are (``ForkedCopies``): the survivors
leave by themselves while abandoned traffic is acknowledged and released,
stragglers are terminated after ``LEAVE_BOUND`` and every slot is drained.
No shared-memory segment of a copy that left by itself outlives the pool; a
straggler terminated with an encoded buffer in hand leaves that one segment
to the resource tracker.  A copy that could not decode an input payload (a
mapped file gone or cut short under it) fails its query with the error it
raised and has the pool abandoned the same way.  Idle pools are retired by
their owner: :class:`PoolManager` closes one that has had no work in flight
for its ``idle_timeout`` (:meth:`WarmPool.idle_seconds`).

Payload lifetime contract: unchanged from the process engine — an input
buffer's arrays are shared-memory views valid only during ``handle``; the
segments themselves are per-payload and are released by the consuming
copy, so nothing about pooling extends a lease across queries.
"""

from __future__ import annotations

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
from repro.engines.process import ForkedCopies, PendingQuery, ProcessEngine
from repro.engines.runtime import fold_cycle, merge_trace
from repro.errors import EngineError

__all__ = ["PendingQuery", "PoolManager", "WarmPool"]


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
        self.created_at = self._last_activity = time.monotonic()
        self._copies = ForkedCopies(self, max_inflight, self._finish_cycle)
        self._copies.start()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def usable(self) -> bool:
        """True while the pool accepts new work."""
        return not self._copies.closed

    @property
    def busy(self) -> bool:
        """True while at least one query is in flight.

        Eviction decisions (:class:`PoolManager`) must not close a busy
        pool — ``close()`` blocks on the in-flight queries, so closing a
        busy pool under a manager lock stalls every other caller.
        """
        return bool(self._copies.pending)

    def idle_seconds(self) -> float:
        """Seconds since the pool last had work in flight (0.0 while busy)."""
        return 0.0 if self.busy else time.monotonic() - self._last_activity

    def stats(self) -> dict:
        """A snapshot for service dashboards (``repro serve`` ``stats``)."""
        copies = self._copies
        return {
            "workers": len(copies.world.plan),
            "max_inflight": self.max_inflight,
            "inflight": len(copies.pending),
            "cycles_completed": self.cycles_completed,
            "closed": copies.closed,
            "broken": bool(copies.errors),
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
        return self._copies.submit(
            uow, open_wall_trace(tracer, self._analysis_report), tracer
        )

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

    def _finish_cycle(self, pending: PendingQuery) -> None:
        """Fold one complete cycle (collector thread) and resolve its query."""
        self._last_activity = time.monotonic()
        self.cycles_completed += 1
        plan = self._copies.world.plan
        metrics, errors = fold_cycle(
            pending.reports, plan, self.ack_nbytes, time_offset=pending.t0
        )
        merge_trace(pending.tracer, pending.reports, time_offset=pending.t0)
        if errors:
            pending._resolve(
                error=EngineError(
                    f"filter copy failed: {errors[0]}",
                    metrics=[metrics],
                    errors=errors,
                )
            )
        else:
            pending._resolve(metrics)
        fault = next((r for r in pending.reports if r.transport_fault), None)
        if fault is not None:
            # A payload that could not be decoded — a mapped file gone or
            # cut short — means the copies may hold mappings of damaged
            # storage, where the next touch is a SIGBUS: retire them all.
            # Every copy has reported the faulty cycle, so each is between
            # cycles or finishing another query and can leave by itself.
            self._copies.abandon(
                f"{plan[fault.cid].label} could not decode its input in "
                f"cycle {pending.cycle}"
            )

    def close(self) -> None:
        """Drain in-flight queries and retire the workers (idempotent)."""
        self._copies.close()


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
