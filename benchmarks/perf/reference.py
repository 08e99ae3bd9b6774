"""The machine-speed reference: one fixed task, timed between operations.

This benchmark runs on a few cores of a shared host whose speed changes
under it: for seconds to minutes at a time everything — a pure-Python
loop, numpy kernels, the whole multi-process pipeline alike — runs 30–60 %
slower, with no CPU steal reported.  A run that falls into such a stretch
reads a quarter slower than its neighbour although the program did not
change, which is as much as any bound this benchmark may declare.

So every timed phase is cut into short *segments* (one batch job, one
block of scenario points, a few seconds of served queries) and between
segments the bench times one *burst* of a fixed task: one process pinned
to each core the workload may use, each doing the mix the program does —
elementwise numpy over an array larger than a core's cache, selection,
a sort, and an interpreter-bound loop.  The system under test is idle
during a burst.  A segment's *speed factor* is the mean of the bursts
before and after it divided by :data:`NOMINAL_S`, the burst's duration on
this box when it is quiet, and every time measured in the segment is
divided by that factor.  The end-to-end metrics are therefore times "at
reference machine speed": on a quiet machine they are the raw times, and
the raw values are printed beside them.

The task below is part of the benchmark's definition.  Changing it or
:data:`NOMINAL_S` changes every end-to-end number, so a change that
claims a gain may not touch this file.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

#: Duration of one burst on the quiet 2-core box the scene is sized for
#: (median of 40 runs' bursts there).
NOMINAL_S = 0.053
#: 129 x 129 x 33 float32 (2.2 MB): half a chunk layer of scene S129.
ARRAY_ELEMENTS = 129 * 129 * 33
NUMPY_ROUNDS = 12
PYTHON_ITERATIONS = 240_000
WARMUP_BURSTS = 3


def task(array: np.ndarray) -> float:
    """The fixed unit of work; its result is only there to be computed."""
    total = 0.0
    for _ in range(NUMPY_ROUNDS):
        scaled = array * 1.0001 + 0.5
        selected = scaled[np.nonzero(scaled > 0.9)[0]]
        total += float(np.sort(selected).sum())
    count = 0
    for i in range(PYTHON_ITERATIONS):
        count += i * i % 7
    return total + count


def _worker(conn, cpu: int) -> None:
    # one worker per core: left to the scheduler, both may be woken on
    # the core of the process that woke them and run one after the other
    os.sched_setaffinity(0, {cpu})
    array = np.random.default_rng(1).random(ARRAY_ELEMENTS, dtype=np.float32)
    while conn.recv():
        t0 = time.perf_counter()
        task(array)
        conn.send(time.perf_counter() - t0)


class Reference:
    """One worker process per core in ``cpus``, idle between bursts."""

    def __init__(self, cpus: "list[int]") -> None:
        context = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        #: per-worker seconds of every burst so far
        self.log: list[list[float]] = []
        for cpu in cpus:
            ours, theirs = context.Pipe()
            proc = context.Process(
                target=_worker, args=(theirs, cpu), daemon=True,
            )
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)
        for _ in range(WARMUP_BURSTS):
            self.burst()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def burst(self) -> float:
        """One task on every worker at once; the mean of their times.

        The mean, not the slowest: when one core is slowed and the other
        is not, work that can use either loses about half of what the
        slow core alone does.
        """
        for conn in self._conns:
            conn.send(True)
        times = [conn.recv() for conn in self._conns]
        self.log.append(times)
        return sum(times) / len(times)

    def close(self) -> None:
        """Tell the workers to return and wait until each has ended."""
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
