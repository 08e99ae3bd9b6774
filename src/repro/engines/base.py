"""Shared engine-facing definitions."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.instrument import RunMetrics
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.diagnostics import DiagnosticReport
    from repro.core.graph import FilterGraph
    from repro.core.placement import Placement
    from repro.core.policies import PolicyFactory
    from repro.core.tracing import Tracer

__all__ = ["Engine", "validate_run_setup", "emit_analysis_events", "open_wall_trace"]


class Engine(ABC):
    """An execution engine runs a placed filter graph for one unit of work.

    Implementations: :class:`repro.engines.simulated.SimulatedEngine` (runs
    cost models over the DES cluster substrate, used for every scheduling
    experiment), :class:`repro.engines.threaded.ThreadedEngine` (real
    filters, one thread per copy — correctness baseline) and
    :class:`repro.engines.process.ProcessEngine` (real filters, one process
    per copy — actual parallelism on multicore hosts).
    """

    @abstractmethod
    def run(self) -> RunMetrics:
        """Execute one unit of work and return its measurements."""


def validate_run_setup(
    graph: "FilterGraph",
    placement: "Placement",
    queue_capacity: int,
    engine_name: str,
    policy: "PolicyFactory | None" = None,
    known_hosts: "Iterable[str] | None" = None,
    factory_slot: str = "factory",
) -> "DiagnosticReport":
    """Shared constructor checks of every engine: the static verifier.

    Runs :func:`repro.analysis.verify_pipeline` over the full run
    configuration — graph structure, placement (against ``known_hosts``
    when the engine has a cluster; the real engines treat host names as
    labels) and writer-policy flow control — plus the engine-specific
    requirements (a ``factory``/``sim_factory`` per filter, a sane queue
    bound).  Every rule here reads the configuration off and can refuse
    it; ``repro lint --graph-module`` calls the same function, so lint
    and the gate report one rule set.

    ERROR-level diagnostics raise immediately (:class:`GraphError` /
    :class:`PlacementError` / :class:`~repro.errors.AnalysisError` by rule
    scope); the full report — including WARNING diagnostics the engine
    surfaces as ``analysis`` trace events at run start — is returned.
    """
    from repro.analysis.pipeline import verify_pipeline

    if queue_capacity < 1:
        raise EngineError(f"queue_capacity must be >= 1, got {queue_capacity}")
    if known_hosts is None:
        known_hosts = {
            cs.host
            for name in placement.placed_filters()
            for cs in placement.copysets(name)
        }
    report = verify_pipeline(
        graph,
        placement,
        known_hosts=known_hosts,
        policy=policy,
        queue_capacity=queue_capacity,
    )
    report.raise_errors()
    for spec in graph.filters.values():
        if getattr(spec, factory_slot) is None:
            raise EngineError(
                f"filter {spec.name!r} has no {factory_slot}; the "
                f"{engine_name} engine needs one per filter"
            )
    return report


def emit_analysis_events(
    tracer: "Tracer | None", report: "DiagnosticReport | None", time: float
) -> None:
    """Record the verifier's WARNING diagnostics as ``analysis`` events.

    Each ``(rule, subject)`` pair is recorded at most once per tracer:
    an engine emits its construction-time report at the start of every
    run, and one tracer may follow several runs (``run()`` twice, or one
    warm-pool query after another), so without the dedup every finding
    would appear once per run in the same trace.
    """
    if tracer is None or report is None:
        return
    for diag in report.warnings:
        if not tracer.note_analysis(diag.rule, diag.subject):
            continue
        tracer.record(
            time, diag.subject, "analysis", f"{diag.rule}: {diag.message}"
        )


def open_wall_trace(
    tracer: "Tracer | None", report: "DiagnosticReport | None"
) -> "int | None":
    """Start a real engine's trace: wall clock, the verifier's warnings first.

    Returns the record limit the copies' local tracers inherit (``None``
    when the run is untraced).
    """
    if tracer is None:
        return None
    if not tracer.clock:
        tracer.clock = "wall"
    emit_analysis_events(tracer, report, 0.0)
    return tracer.limit
