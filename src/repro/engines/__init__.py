"""Execution engines for placed filter graphs.

Every engine runs the one work cycle of
:func:`repro.engines.runtime.execute_cycle`, a generator of effects; they
differ in who performs the effects:

- :class:`~repro.engines.simulated.SimulatedEngine` performs them as DES
  events, charging cost models over the cluster substrate (all scheduling
  experiments);
- :class:`~repro.engines.threaded.ThreadedEngine` performs them by blocking,
  real filters on threads in this process, payloads passed by reference
  (correctness runs, examples);
- :class:`~repro.engines.process.ProcessEngine` performs them by blocking,
  real filters with one process per copy, payloads through the
  :class:`~repro.core.buffer.BufferCodec` (actual parallelism on multicore
  hosts);
- :class:`~repro.engines.pool.WarmPool` keeps process-engine copies alive
  between runs, serving units of work as they arrive (``repro serve``).

The real engines resolve one :class:`~repro.engines.runtime.PendingQuery`
per unit of work, each folded once by
:func:`~repro.engines.runtime.fold_query`.
"""

from repro.engines.base import Engine
from repro.engines.pool import WarmPool
from repro.engines.process import ProcessEngine
from repro.engines.runtime import PendingQuery
from repro.engines.simulated import SimulatedEngine
from repro.engines.threaded import ThreadedEngine

__all__ = [
    "Engine",
    "PendingQuery",
    "ProcessEngine",
    "SimulatedEngine",
    "ThreadedEngine",
    "WarmPool",
]
