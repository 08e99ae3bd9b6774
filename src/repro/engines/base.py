"""The one way an engine is built and run: :class:`Engine`."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import Any, ClassVar

from repro.analysis.pipeline import verify_pipeline
from repro.core.graph import FilterGraph
from repro.core.instrument import RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, make_policy_factory
from repro.core.tracing import Tracer
from repro.errors import EngineError

__all__ = ["Engine"]


class Engine(ABC):
    """An execution engine runs a placed filter graph, one unit of work per cycle.

    Implementations: :class:`repro.engines.simulated.SimulatedEngine` (runs
    cost models over the DES cluster substrate, used for every scheduling
    experiment), :class:`repro.engines.threaded.ThreadedEngine` (real
    filters, one thread per copy — correctness baseline),
    :class:`repro.engines.process.ProcessEngine` (real filters, one process
    per copy — actual parallelism on multicore hosts) and its warm
    :class:`repro.engines.pool.WarmPool`.  Each supplies only what its
    transport adds: :meth:`_cycles`, and the hosts or factory slot it needs.
    """

    #: The :class:`~repro.core.graph.FilterSpec` attribute every filter needs.
    _factory_slot: ClassVar[str] = "factory"

    def __init__(
        self,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        queue_capacity: int = 8,
        tracer: Tracer | None = None,
    ) -> None:
        """Resolve the writer policy and run the engine gate.

        The gate is :func:`repro.analysis.verify_pipeline` over the whole
        configuration — graph structure, placement against
        :meth:`_known_hosts` and writer-policy flow control — plus a
        ``queue_capacity`` of at least 1 and a :attr:`_factory_slot` on
        every filter.  Each refusal raises before anything starts: an
        ERROR diagnostic as :class:`~repro.errors.GraphError`,
        :class:`~repro.errors.PlacementError` or
        :class:`~repro.errors.AnalysisError` by rule scope, the other two as
        :class:`EngineError`.  The report is kept; :meth:`_open_trace`
        records its WARNINGs.
        """
        self._policy = make_policy_factory(policy)
        if queue_capacity < 1:
            raise EngineError(f"queue_capacity must be >= 1, got {queue_capacity}")
        report = verify_pipeline(
            graph,
            placement,
            known_hosts=self._known_hosts(placement),
            policy=self._policy,
            queue_capacity=queue_capacity,
        )
        report.raise_errors()
        for spec in graph.filters.values():
            if getattr(spec, self._factory_slot) is None:
                raise EngineError(
                    f"filter {spec.name!r} has no {self._factory_slot}; "
                    f"{type(self).__name__} needs one per filter"
                )
        self._analysis_report = report
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.tracer = tracer

    def _known_hosts(self, placement: Placement) -> Iterable[str]:
        """The hosts a placement may name; the real engines treat its own
        host names as labels."""
        return {
            cs.host for name in placement.placed_filters() for cs in placement.copysets(name)
        }

    def _open_trace(self, tracer: Tracer | None, clock: str, at: float = 0.0) -> int | None:
        """Start a run's trace on ``clock``, the gate's WARNINGs first.

        Each WARNING becomes an ``analysis`` event at ``at``, and each
        ``(rule, subject)`` pair is recorded at most once per tracer: one
        tracer may follow several runs (``run()`` twice, or one warm-pool
        query after another).  Returns the record limit the copies' local
        tracers inherit (``None`` when the run is untraced).
        """
        if tracer is None:
            return None
        if not tracer.clock:
            tracer.clock = clock
        for diag in self._analysis_report.warnings:
            if tracer.note_analysis(diag.rule, diag.subject):
                tracer.record(at, diag.subject, "analysis", f"{diag.rule}: {diag.message}")
        return tracer.limit

    def run(self) -> RunMetrics:
        """Execute one unit of work: ``run_cycles([None])[0]``."""
        return self.run_cycles([None])[0]

    def run_cycles(self, uows: list[Any]) -> list[RunMetrics]:
        """Run consecutive units of work through the placed copies.

        This is the paper's work-cycle protocol (Section 2): each cycle
        calls ``init`` -> ``handle``/``flush`` -> ``finalize`` on every
        filter copy.  ``uows`` supplies one descriptor per cycle, visible to
        real filters as ``ctx.uow`` (e.g. ``{"timestep": 3}`` or a camera).
        Returns one :class:`RunMetrics` per unit of work, each makespan
        measured from that cycle's origin; a failed copy raises
        :class:`EngineError` naming it, with the metrics attached.
        """
        if not uows:
            raise EngineError("run_cycles() needs at least one unit of work")
        return self._cycles(uows)

    @abstractmethod
    def _cycles(self, uows: list[Any]) -> list[RunMetrics]:
        """:meth:`run_cycles` on this transport, ``uows`` not empty."""
