"""Execution engines for placed filter graphs.

Every engine runs the one work cycle of
:func:`repro.engines.runtime.execute_cycle`, a generator of effects; they
differ in who performs the effects:

- :class:`~repro.engines.simulated.SimulatedEngine` performs them as DES
  events, charging cost models over the cluster substrate (all scheduling
  experiments);
- :class:`~repro.engines.threaded.ThreadedEngine` performs them by blocking,
  real filters on threads in this process (correctness runs, examples);
- :class:`~repro.engines.process.ProcessEngine` performs them by blocking,
  real filters with one process per copy (actual parallelism on multicore
  hosts);
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
