"""Warm filter-host pools: persistent worker processes serving queries.

``ProcessEngine.run()`` cold-spawns one OS process per transparent copy,
rebuilds every filter instance and allocates fresh copy-set queues for
every run — fatal for serving traffic, where the pipeline is fixed and
only the unit of work changes per query.  :class:`WarmPool` keeps the
copies alive: it forks the workers once, then feeds successive units of
work over per-worker control pipes — the batch engine's own mechanism
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
Payloads live in the copies' arenas — anonymous mappings the pool made
before it forked — so nothing named outlives the pool, whoever was
terminated holding what.  A copy that could not decode an input payload (a
mapped file gone or cut short under it) fails its query with the error it
raised and has the pool abandoned the same way.  The pool's owner replaces
a pool that is no longer :attr:`~WarmPool.usable` (``repro serve`` keeps one
per scene).

Payload lifetime contract: unchanged from the process engine — an input
buffer's arrays are views into the producer's arena valid only during
``handle``, whose extent the consuming copy gives back when ``handle``
returns and the producer then reuses; nothing about pooling extends a lease
across queries.  :meth:`WarmPool.stats` reports each producing copy's arena
capacity and high-water mark.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.graph import FilterGraph
from repro.core.instrument import RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import open_wall_trace
from repro.engines.process import ForkedCopies, PendingQuery, ProcessEngine
from repro.engines.runtime import copies_failed, fold_cycle, merge_trace
from repro.errors import EngineError

__all__ = ["PendingQuery", "WarmPool"]


class WarmPool(ProcessEngine):
    """A :class:`ProcessEngine` whose copies outlive any single run.

    Construction validates and forks immediately (the pool is warm once
    ``__init__`` returns); ``submit`` enqueues one unit of work and
    ``run``/``run_cycles`` provide the blocking batch API on top.  Use as a
    context manager or call :meth:`close` — the workers are daemonic, but
    an explicit close lets every pending query finish before they exit.

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
        queue_capacity: int = 8,
        codec=None,
        max_inflight: int = 2,
    ):
        super().__init__(
            graph,
            placement,
            policy=policy,
            queue_capacity=queue_capacity,
            tracer=None,
            codec=codec,
        )
        if max_inflight < 1:
            raise EngineError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.cycles_completed = 0
        self.created_at = time.monotonic()
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

    def stats(self) -> dict:
        """A snapshot for service dashboards (``repro serve`` ``stats``)."""
        copies = self._copies
        world = copies.world
        return {
            "workers": len(world.plan),
            "max_inflight": self.max_inflight,
            "inflight": len(copies.pending),
            "cycles_completed": self.cycles_completed,
            "closed": copies.closed,
            "broken": bool(copies.errors),
            "age_s": time.monotonic() - self.created_at,
            "arenas": {
                copy.label: {"capacity": arena.capacity, "high_water": arena.high_water}
                for copy, arena in zip(world.plan, world.arenas)
                if arena is not None
            },
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
            raise copies_failed(errors, metrics_list)
        return metrics_list

    def _finish_cycle(self, pending: PendingQuery) -> None:
        """Fold one complete cycle (collector thread) and resolve its query."""
        self.cycles_completed += 1
        plan = self._copies.world.plan
        metrics, errors = fold_cycle(
            pending.reports, plan, time_offset=pending.t0
        )
        merge_trace(pending.tracer, pending.reports, time_offset=pending.t0)
        if errors:
            pending._resolve(error=copies_failed(errors, [metrics]))
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
