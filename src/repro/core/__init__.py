"""DataCutter-style component framework.

Filters communicate over unidirectional streams carrying fixed-size buffers;
a logical filter may execute as transparent copies across hosts, with writer
policies (RR / WRR / DD) routing buffers among copy sets.
"""

from repro.core.buffer import DataBuffer, chunk_bytes
from repro.core.filter import Filter, FilterContext
from repro.core.graph import FilterGraph, FilterSpec, StreamSpec
from repro.core.instrument import CopyStats, RunMetrics, StreamStats
from repro.core.negotiate import BufferBounds, declare_bounds, negotiate
from repro.core.placement import CopySetSpec, Placement
from repro.core.policies import (
    DemandDriven,
    PolicyFactory,
    RoundRobin,
    Target,
    WeightedRoundRobin,
    WriterPolicy,
    make_policy_factory,
)
from repro.core.tracing import EVENT_KINDS, QueueSample, TraceEvent, Tracer

__all__ = [
    "BufferBounds",
    "CopySetSpec",
    "CopyStats",
    "DataBuffer",
    "DemandDriven",
    "EVENT_KINDS",
    "Filter",
    "FilterContext",
    "FilterGraph",
    "FilterSpec",
    "Placement",
    "PolicyFactory",
    "QueueSample",
    "RoundRobin",
    "RunMetrics",
    "StreamSpec",
    "StreamStats",
    "Target",
    "TraceEvent",
    "Tracer",
    "WeightedRoundRobin",
    "WriterPolicy",
    "chunk_bytes",
    "declare_bounds",
    "make_policy_factory",
    "negotiate",
]
