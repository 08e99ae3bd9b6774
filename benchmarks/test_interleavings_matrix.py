"""Every interleaving of the protocol's larger cells, outside tier-1.

Runs the explorer of ``tests/engines/test_interleavings.py`` (the real
``execute_cycle``, ``Router`` and ``CloseCount`` on two producers into copy
sets of two copies and of one, window 1, capacity 1) on RR and WRR at three
buffers per producer and DD at two, each with no crash and with each
consumer copy set's first copy raising at its first ``work``, and on DD at
three with no crash: the one cell where a window could overflow, since at
two buffers the least-loaded choice never needs a second buffer in flight
to one copy set.  Every property holds on every schedule; the states each
cell visits are attached to ``benchmark.extra_info``.  About 60 s together
on two cores, 34 s of it DD at three (197,915 states).
"""

import pytest

from tests.engines.test_interleavings import CRASHES, Cell, explore

MATRIX = [
    *(
        Cell(policy, buffers, crash)
        for policy, buffers in (("RR", 3), ("WRR", 3), ("DD", 2))
        for crash in CRASHES
    ),
    Cell("DD", 3),
]


@pytest.mark.parametrize("cell", MATRIX, ids=str)
def test_interleavings_matrix(benchmark, cell):
    states = benchmark.pedantic(explore, args=(cell,), rounds=1, iterations=1)
    benchmark.extra_info["states"] = states
    assert states > 0
