"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class GraphError(ReproError):
    """Errors in filter-graph construction or validation."""


class PlacementError(ReproError):
    """Errors in mapping filters (or their copies) to hosts."""


class StreamClosedError(ReproError):
    """Raised when writing to a stream whose consumers have all finished."""


class EngineError(ReproError):
    """Errors raised by an execution engine while running a filter graph.

    When a multi-UOW run fails part-way, engines attach the partial
    per-cycle metrics and every collected error so callers (``repro
    serve``, the warm pool) can fail one query without losing the batch:

    ``metrics``
        One ``RunMetrics`` per submitted unit of work, fully merged for
        healthy cycles (empty when the failure predates any merge).
    ``errors``
        Human-readable strings, one per failed copy/cycle, in collection
        order; the exception message quotes the first.
    """

    def __init__(
        self,
        message: str = "",
        *,
        metrics: list[object] | None = None,
        errors: list[str] | None = None,
    ):
        super().__init__(message)
        self.metrics: list[object] = metrics if metrics is not None else []
        self.errors: list[str] = errors if errors is not None else []


class DataError(ReproError):
    """Errors in dataset generation, chunking, or declustering."""


class ConfigurationError(ReproError):
    """Invalid user-supplied configuration (cluster, policy, experiment)."""


class MetricsError(ReproError):
    """Run-metrics consistency violation (see ``RunMetrics.validate``)."""


class AnalysisError(ReproError):
    """A static-analysis pass found ERROR-level diagnostics.

    Raised by :meth:`repro.analysis.DiagnosticReport.raise_errors` for
    diagnostics that do not map onto a more specific error type
    (:class:`GraphError` for graph-scope rules, :class:`PlacementError` for
    placement-scope rules).  The ``report`` attribute carries the full
    :class:`repro.analysis.DiagnosticReport`.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report
