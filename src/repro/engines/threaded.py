"""Threaded execution engine: run real filters locally.

Each transparent copy becomes a Python thread running the shared work-cycle
runtime (:mod:`repro.engines.runtime`) over the same pipes as forked copies:
copy-set queues, and DD acknowledgments sent to the producer's arena;
payloads pass by reference, so threads are the reference forked copies'
frames are held to.  Placement host
names are treated as labels — all threads run in this process — so the same
graph/placement objects drive every engine.

This engine exists for *correctness* and for the runnable examples (it
renders real images).  Scheduling/throughput conclusions come from the
simulated engine: the GIL serialises NumPy-light Python work and would
distort them (see DESIGN.md).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.instrument import RunMetrics
from repro.engines.base import Engine
from repro.engines.runtime import CycleReport, PendingQuery, World, fold_query, results, run_copy

__all__ = ["ThreadedEngine"]


class ThreadedEngine(Engine):
    """Execute a filter graph with real filters and one thread per copy.

    Built as every :class:`~repro.engines.base.Engine` is; every filter
    needs a ``factory`` building a
    :class:`repro.core.filter.Filter`.  Source filters (no input streams)
    receive no ``handle`` calls; they generate all their output from
    ``flush`` via ``ctx.write``.

    ``tracer`` is an optional :class:`repro.core.tracing.Tracer` that
    receives one span per effect each copy performs (plus ``send``,
    ``blocked`` and ``acked`` spans) on wall-clock seconds since run start.
    """

    def _cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run every cycle through *persistent* copies: each filter copy is
        instantiated once, and cycles pipeline — a producer may start cycle
        k+1 while a downstream copy still drains cycle k.  Each makespan is
        the wall time from launch until that cycle's last copy finished.
        """
        # One slot per cycle, so cycles pipeline without barriers.  All
        # timestamps (trace events, per-copy finished_at, makespan) are wall
        # seconds relative to the world's start, directly comparable to the
        # simulated engine's run-relative sim clock.
        world = World(
            self.graph, self.placement, self._policy, None, len(uows),
            self.queue_capacity,
        )
        trace_limit = self._open_trace(self.tracer, "wall")
        cycles = [(k, k, uow, trace_limit) for k, uow in enumerate(uows)]
        pendings = [PendingQuery(k, self.tracer) for k in range(len(uows))]

        def emit(report: CycleReport) -> None:
            pendings[report.cycle].reports.append(report)

        threads = [
            threading.Thread(
                target=run_copy,
                args=(world, copy, cycles, emit),
                name=f"{copy.label}*",
                daemon=True,
            )
            for copy in world.plan
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        world.close()
        for pending in pendings:
            fold_query(pending, world.plan)
        return results(pendings)
