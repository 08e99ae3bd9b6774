"""The replay witness: equal inputs give equal bytes, on every shipped stage.

A result cache may replay a filter's output only if the filter, handed
the same unit of work and the same input buffers, writes the same
buffers again — whatever it ran before.  The memoisation certifier
(``repro.analysis.certify_memoisable``) trusts each stage's declared
effects; this property runs the code those declarations are about.

For each configuration and algorithm, every node's real factory runs in
topological order, each node fed what its predecessor wrote.  One
instance runs unit of work A, then B, then A again; fresh instances run
A and B.  The three A runs must pickle to the same bytes — the written
buffers' ``(nbytes, tags, payload)`` and, for the sink, ``result()`` —
and so must the two B runs.  The two mutants below — a clock in the
tags, a counter that survives ``init`` — go through the same helper and
must fail it.
"""

import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configurations import ALGORITHMS, CONFIGURATIONS
from repro.core.filter import FilterContext
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.viz import IsosurfaceApp
from repro.viz import filters as real
from repro.viz.camera import Camera
from repro.viz.profile import DatasetProfile

SHAPE = (17, 17, 17)
IMAGE = 32
DATASET = ParSSimDataset(SHAPE, timesteps=2, species=1, seed=5)
PROFILE = DatasetProfile.measured("witness", DATASET, 8, 4, isovalue=0.5)
STORAGE = StorageMap.balanced(PROFILE.files, [HostDisks("h0")])


def shipped_graph(config, algorithm):
    """The shipped graph of ``config``, with real factories."""
    app = IsosurfaceApp(
        PROFILE, STORAGE, width=IMAGE, height=IMAGE, algorithm=algorithm,
        dataset=DATASET,
    )
    return app.graph(config)


def unit_of_work(isovalue, timestep, azimuth, elevation):
    """A served query's unit-of-work descriptor."""
    camera = Camera.orbit(
        SHAPE, azimuth_deg=azimuth, elevation_deg=elevation,
        width=IMAGE, height=IMAGE,
    )
    return {"isovalue": isovalue, "timestep": timestep, "camera": camera}


units_of_work = st.builds(
    unit_of_work,
    isovalue=st.floats(0.05, 0.95),
    timestep=st.integers(0, DATASET.timesteps - 1),
    azimuth=st.floats(-180.0, 180.0),
    elevation=st.floats(-80.0, 80.0),
)


def run_unit(instance, spec, uow, inputs):
    """One unit of work on one instance: what it wrote, and its bytes."""
    written = []
    ctx = FilterContext(
        spec.name, "h0", 0, 1, 1, [s.name for s in spec.outputs],
        lambda _stream, buffer: written.append(buffer), uow=uow,
    )
    instance.init(ctx)
    for buffer in inputs:
        instance.handle(ctx, buffer)
    instance.flush(ctx)
    instance.finalize(ctx)
    result = None if spec.outputs else instance.result()
    record = [(b.nbytes, b.tags, b.payload) for b in written]
    return written, pickle.dumps((record, result))


def witness(spec, a, inputs_a, b, inputs_b):
    """Run ``spec``'s factory A, B, A on one instance and A, B on fresh
    ones: every run must agree to the byte with the fresh run of its unit
    of work.  Returns what A and B wrote."""
    instance = spec.factory()
    _, first = run_unit(instance, spec, a, inputs_a)
    _, b_after_a = run_unit(instance, spec, b, inputs_b)
    _, again = run_unit(instance, spec, a, inputs_a)
    wrote_a, fresh = run_unit(spec.factory(), spec, a, inputs_a)
    wrote_b, fresh_b = run_unit(spec.factory(), spec, b, inputs_b)
    assert first == fresh, f"{spec.name}: a reused instance differs on A"
    assert b_after_a == fresh_b, f"{spec.name}: B after A differs from B"
    assert again == fresh, f"{spec.name}: A after B differs from A"
    return wrote_a, wrote_b


def witness_graph(graph, a, b):
    """The witness over every node, in topological order; returns what
    each node wrote on A."""
    wrote_a, wrote_b = {}, {}
    for name in graph.topological_order():
        spec = graph.filters[name]
        upstream = [s.src for s in spec.inputs]
        wrote_a[name], wrote_b[name] = witness(
            spec,
            a, [buf for up in upstream for buf in wrote_a[up]],
            b, [buf for up in upstream for buf in wrote_b[up]],
        )
    return wrote_a


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("config", CONFIGURATIONS)
@settings(max_examples=10, deadline=None)
@given(a=units_of_work, b=units_of_work)
def test_every_shipped_stage_replays(config, algorithm, a, b):
    witness_graph(shipped_graph(config, algorithm), a, b)


# -- mutants: the witness must catch them ------------------------------------


class ClockedExtract(real.ExtractFilter):
    """Tags every buffer with the time it was handled."""

    def handle(self, ctx, buffer):
        super().handle(ctx, buffer.with_tags(ns=time.perf_counter_ns()))


class CountingExtract(real.ExtractFilter):
    """Numbers its buffers with a counter ``init`` never resets."""

    def __init__(self, isovalue):
        super().__init__(isovalue)
        self.seen = 0

    def handle(self, ctx, buffer):
        self.seen += 1
        super().handle(ctx, buffer.with_tags(seen=self.seen))


@pytest.mark.parametrize("mutant", [ClockedExtract, CountingExtract])
def test_the_witness_catches_a_mutant_extract(mutant):
    graph = shipped_graph("R-E-Ra-M", "active")
    a = unit_of_work(0.5, 0, 30.0, 25.0)
    b = unit_of_work(0.3, 1, 120.0, -10.0)
    # The shipped Extract passes, and has buffers to number.
    assert witness_graph(graph, a, b)["E"]
    graph.filters["E"].factory = lambda: mutant(0.5)
    with pytest.raises(AssertionError, match="^E: "):
        witness_graph(graph, a, b)
