"""Benchmark configuration.

Each bench regenerates one of the paper's tables/figures (or an ablation
or extension of them) through the full simulation stack, asserts the
*shape* of the result, and reports the wall time of doing so.  Experiments
are deterministic, so a single round is measured; the regenerated table
itself is attached to ``benchmark.extra_info`` for inspection in the JSON
output.  Nothing here measures the speed of the real engines or writes
into the tree: that is ``benchmarks/perf/`` (declared by
``BENCHMARK.json``), which states its machine, scene, rounds and spread.
"""

import pytest


@pytest.fixture
def regenerate(benchmark):
    """Run an experiment once under the benchmark timer; return its table."""

    def _run(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        benchmark.extra_info["rows"] = len(result.rows)
        benchmark.extra_info["title"] = result.title
        return result

    return _run
