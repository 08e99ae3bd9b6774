"""Threaded execution engine: run real filters locally.

Each transparent copy becomes a Python thread running the shared work-cycle
runtime (:mod:`repro.engines.runtime`) over the thread transport: bounded
``queue.Queue`` copy-set queues, payloads by reference, DD acknowledgments
applied by the consumer directly on the producer's writer.  Placement host
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

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, open_wall_trace, validate_run_setup
from repro.engines.runtime import (
    CycleReport,
    ThreadTransport,
    World,
    fold_batch,
    run_copy,
)
from repro.errors import EngineError

__all__ = ["ThreadedEngine"]


class ThreadedEngine(Engine):
    """Execute a filter graph with real filters and one thread per copy.

    Parameters mirror :class:`repro.engines.simulated.SimulatedEngine`;
    every filter needs a ``factory`` building a
    :class:`repro.core.filter.Filter`.  Source filters (no input streams)
    receive no ``handle`` calls; they generate all their output from
    ``flush`` via ``ctx.write``.

    ``ack_nbytes`` is the nominal wire size of one DD acknowledgment
    (``RunMetrics.ack_bytes`` accounting, matching the simulated engine);
    ``tracer`` is an optional :class:`repro.core.tracing.Tracer` that
    records the unified event schema (recv / compute / send / ack / flush /
    done / blocked) with wall-clock timestamps relative to run start.

    ``codec`` optionally routes every stream buffer through a
    :class:`repro.core.buffer.BufferCodec` encode/decode round trip — the
    same wire format the process engine uses.  Threads share an address
    space so this is pure overhead in production, but it proves a pipeline
    is codec-clean (all payloads serialisable) before moving it to
    :class:`repro.engines.process.ProcessEngine`.
    """

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        policy_overrides: dict[str, str | PolicyFactory] | None = None,
        queue_capacity: int = 8,
        ack_nbytes: int = DEFAULT_ACK_BYTES,
        tracer: "Tracer | None" = None,
        codec: "BufferCodec | None" = None,
    ):
        self._set_policies(policy, policy_overrides)
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "threaded",
            policy_for=self._policy_for,
        )
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.ack_nbytes = ack_nbytes
        self.tracer = tracer
        self.codec = codec

    def run(self) -> RunMetrics:
        """Execute one unit of work; blocks until all copies finish.

        Equivalent to ``run_cycles([None])[0]`` — a single work cycle with
        no unit-of-work descriptor.
        """
        return self.run_cycles([None])[0]

    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run consecutive units of work through *persistent* filter copies.

        This is the paper's work-cycle protocol (Section 2): each filter
        copy is instantiated once, then for every unit of work the service
        calls ``init`` -> ``handle``/``flush`` -> ``finalize`` on the same
        instance.  ``uows`` supplies one descriptor per cycle, visible to
        filters as ``ctx.uow`` (e.g. ``{"timestep": 3}`` or a camera).
        Cycles pipeline: a producer may start cycle k+1 while a downstream
        copy still drains cycle k.

        Returns one :class:`RunMetrics` per unit of work; each makespan is
        the wall time from launch until that cycle's last copy finished.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        # One slot per cycle, so cycles pipeline without barriers.  All
        # timestamps (trace events, per-copy finished_at, makespan) are wall
        # seconds relative to the world's start, directly comparable to the
        # simulated engine's run-relative sim clock.
        world = World(
            self.graph, self.placement, self._policy_for,
            ThreadTransport(self.codec), len(uows), self.queue_capacity,
        )
        trace_limit = open_wall_trace(self.tracer, self._analysis_report)
        cycles = [(k, k, uow, trace_limit) for k, uow in enumerate(uows)]
        reports: list[CycleReport] = []
        threads = [
            threading.Thread(
                target=run_copy,
                args=(world, copy, cycles, reports.append),
                name=f"{copy.label}*",
                daemon=True,
            )
            for copy in world.plan
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return fold_batch(
            reports, world.plan, len(uows), self.ack_nbytes, self.tracer
        )
