"""Process-parallel execution engine: real filters, one process per copy.

Each transparent copy becomes a worker in a ``multiprocessing`` pool-of-one
(one ``Process`` per copy), so filter compute runs genuinely in parallel on
multicore hosts — the paper's transparent-copy speedups become measurable
instead of GIL-serialised (contrast :class:`repro.engines.threaded.
ThreadedEngine`, which keeps the same protocol but shares one interpreter).

The work-cycle protocol is the shared runtime's
(:mod:`repro.engines.runtime`); this engine supplies the process transport
and the supervision of forked workers:

- **copy-set queues** are bounded ``multiprocessing.Queue`` objects shared
  by all copies of a filter on one "host"; end-of-work markers are counted
  in a cross-process shared counter;
- **writer policies** (RR / WRR / DD / RATE) run unchanged inside each
  producer process; DD/RATE acknowledgments travel *back* over a per-copy
  control queue (``multiprocessing.SimpleQueue``) and are applied by an
  ack-drain thread inside the producer, which also wakes writers blocked on
  full windows;
- **payloads** cross process boundaries through the shared
  :class:`repro.core.buffer.BufferCodec`: large NumPy arrays ride
  ``multiprocessing.shared_memory`` segments (zero-copy attach on the
  consumer side) under a small pickle header, so scalar blocks, triangle
  soups and z-buffer slabs never serialise through a pipe;
- **observability** feeds the same :class:`~repro.core.tracing.Tracer` /
  :class:`~repro.core.instrument.RunMetrics` layer: every worker records
  events and counters locally and ships them to the parent per cycle,
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
from typing import Any

from repro.core.buffer import BufferCodec
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory
from repro.core.tracing import Tracer
from repro.engines.base import Engine, open_wall_trace, validate_run_setup
from repro.engines.runtime import (
    STOP,
    CopyPlan,
    CycleReport,
    ProcessTransport,
    World,
    discard,
    fold_batch,
    run_copy,
)
from repro.errors import EngineError

__all__ = ["ProcessEngine", "START_METHOD"]

#: The ``multiprocessing`` start method of every worker (see above).
START_METHOD = "fork"


class ProcessEngine(Engine):
    """Execute a filter graph with real filters and one process per copy.

    Parameters mirror :class:`repro.engines.threaded.ThreadedEngine`
    (graph, placement, writer policy, queue capacity, ack accounting,
    tracer); additionally:

    ``codec``
        The :class:`~repro.core.buffer.BufferCodec` moving payloads between
        processes (default: shared memory for arrays >= 64 KiB).
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
        self.codec = codec or BufferCodec()
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "process",
            policy_for=self._policy_for,
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
        self.ack_nbytes = ack_nbytes
        self.tracer = tracer

    def run(self) -> RunMetrics:
        """Execute one unit of work; blocks until all copies finish."""
        return self.run_cycles([None])[0]

    # -- orchestration (parent process) -------------------------------------
    def run_cycles(self, uows: "list[Any]") -> list[RunMetrics]:
        """Run consecutive units of work through persistent filter copies.

        The work-cycle protocol of ``ThreadedEngine.run_cycles``, with each
        copy a long-lived worker process: one filter instance per copy, one
        ``init``/``handle``/``flush``/``finalize`` pass per unit of work,
        cycles pipelining freely.  Returns one :class:`RunMetrics` per unit
        of work.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        ncycles = len(uows)
        mp_ctx = multiprocessing.get_context(START_METHOD)
        world = self._build_world(mp_ctx, ncycles)
        results = mp_ctx.SimpleQueue()
        trace_limit = open_wall_trace(self.tracer, self._analysis_report)
        cycles = [(k, k, uow, trace_limit) for k, uow in enumerate(uows)]

        procs = {
            copy.cid: mp_ctx.Process(
                target=run_copy,
                args=(world, copy, cycles, results.put),
                name=copy.label,
                daemon=True,
            )
            for copy in world.plan
        }
        for proc in procs.values():
            proc.start()

        # Reports must drain concurrently: a worker's put can exceed the
        # pipe buffer and would deadlock a join-first parent.
        reports: list[CycleReport] = []

        def _collect() -> None:
            while (item := results.get()) != STOP:
                reports.append(item)

        collector = threading.Thread(target=_collect, daemon=True)
        collector.start()

        crashes = self._supervise(procs, world)
        results.put(STOP)
        collector.join()

        return fold_batch(
            reports, world.plan, ncycles, self.ack_nbytes, self.tracer,
            errors=[
                f"worker process {copy.label} died with exit code {exitcode}"
                for copy, exitcode in crashes
            ],
        )

    def _build_world(self, mp_ctx: Any, nslots: int) -> World:
        """The process-transport world of this engine, ``nslots`` deep."""
        # Start the shared-memory resource tracker *before* forking so every
        # worker talks to the same tracker process: a segment registered at
        # creation in one worker is then balanced by the unlink in another,
        # instead of each side lazily spawning its own tracker and warning
        # about "leaked" objects at exit.
        if self.codec.use_shared_memory:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        return World(
            self.graph, self.placement, self._policy_for,
            ProcessTransport(mp_ctx, self.codec), nslots, self.queue_capacity,
        )

    def _supervise(
        self, procs: "dict[int, Any]", world: World
    ) -> "list[tuple[CopyPlan, int]]":
        """Wait for all workers; recover from hard crashes.

        A worker that dies without running its cleanup (segfault, kill,
        fork-safety bug) would leave consumers waiting for end-of-work and
        producers blocked on a queue nobody drains.  The parent holds every
        queue handle, so it announces EOW on the dead copy's behalf and
        drains copy sets whose members are all gone.

        While every worker is healthy the supervisor blocks in
        ``multiprocessing.connection.wait`` on the process sentinels — one
        poll(2) that sleeps in the kernel until a worker actually exits,
        instead of a 10 ms ``is_alive`` loop burning a core per run.  Only
        after a crash, while fully-dead copy sets may still receive traffic
        from surviving producers, does the wait take a short timeout so the
        drain sweeps keep running.
        """
        live = dict(procs)
        sentinels = {p.sentinel: c for c, p in procs.items()}
        crashes = []
        dead_cids: set[int] = set()
        while live:
            ready = multiprocessing.connection.wait(
                [p.sentinel for p in live.values()],
                timeout=0.05 if dead_cids else None,
            )
            for sentinel in ready:
                c = sentinels[sentinel]
                proc = live.pop(c)
                proc.join()
                if proc.exitcode != 0:
                    crashes.append((world.plan[c], proc.exitcode))
                    dead_cids.add(c)
                    for st in world.plan[c].spec.outputs:
                        for per_set in world.copysets[st.dst]:
                            for csq in per_set:
                                # Announce on the dead copy's behalf (a
                                # surplus marker is ignored consumer-side).
                                # The put blocks while the queue is full, so
                                # run it off-thread to keep supervising.
                                threading.Thread(
                                    target=csq.producer_finished,
                                    daemon=True,
                                ).start()
            if dead_cids:
                self._drain_dead_copysets(world, live, dead_cids)
        return crashes

    def _drain_dead_copysets(
        self, world: World, live: "dict[int, Any]", dead_cids: "set[int]"
    ) -> None:
        """Discard traffic aimed at copy sets with no surviving member."""
        members: dict[tuple[str, int], list[int]] = {}
        for copy in world.plan:
            members.setdefault((copy.spec.name, copy.set_idx), []).append(copy.cid)
        for (name, set_idx), cids in members.items():
            if not any(c in dead_cids for c in cids):
                continue
            if any(c in live for c in cids):
                continue  # a surviving sibling still drains the queue
            for csq in world.copysets[name][set_idx]:
                for wire in csq.queued():
                    discard(wire, world.acks)
