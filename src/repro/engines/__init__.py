"""Execution engines for placed filter graphs.

- :class:`~repro.engines.simulated.SimulatedEngine` runs cost models over
  the DES cluster substrate (all scheduling experiments);
- :class:`~repro.engines.threaded.ThreadedEngine` runs real filters with
  threads in this process (correctness runs, examples);
- :class:`~repro.engines.process.ProcessEngine` runs real filters with one
  process per copy (actual parallelism on multicore hosts);
- :class:`~repro.engines.pool.WarmPool` keeps process-engine copies alive
  between runs, serving units of work as they arrive (``repro serve``).
"""

from repro.engines.base import Engine
from repro.engines.pool import PendingQuery, PoolManager, WarmPool
from repro.engines.process import ProcessEngine
from repro.engines.simulated import SimulatedEngine
from repro.engines.threaded import ThreadedEngine

__all__ = [
    "Engine",
    "PendingQuery",
    "PoolManager",
    "ProcessEngine",
    "SimulatedEngine",
    "ThreadedEngine",
    "WarmPool",
]
