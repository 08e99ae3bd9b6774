"""Property test: randomly generated valid pipelines verify clean and run.

A "valid" pipeline here is a random linear-ish DAG (chain plus optional
skip connections, middle filters forwarding or phase-synchronised) with
every filter placed on known hosts, over any queue bound and DD window
the constructors accept.  The property: the static verifier reports zero
ERROR diagnostics, and a real engine runs the pipeline to completion
within a hard timeout and delivers every buffer — the no-wedge argument
of DESIGN §3c, checked by running the code on both transports.  Every
payload is an array; on forked copies each one goes through its
producer's arena, shrunk to three payloads, so senders also block on a
full arena — §3c's third place.
"""

import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_pipeline
from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core import buffer as buffer_module
from repro.core.buffer import BufferCodec
from repro.core.policies import make_policy_factory
from repro.engines.process import ProcessEngine
from repro.engines.threaded import ThreadedEngine

HOSTS = ["h0", "h1", "h2"]
#: One buffer's payload: 32 int64 summing to 1 (256 bytes, out of band at
#: the forked run's threshold).
PAYLOAD = np.eye(1, 32, dtype=np.int64)[0]


class Source(Filter):
    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                for stream in ctx.output_streams:
                    ctx.write(
                        DataBuffer(PAYLOAD.nbytes, payload=PAYLOAD, tags={"seq": i}),
                        stream=stream,
                    )


class Forward(Filter):
    def handle(self, ctx, buffer):
        ctx.write(buffer)


class Hold(Filter):
    """Phase-synchronised: holds every input in ``handle``, writes in ``flush``."""

    def init(self, ctx):
        self.held = []

    def handle(self, ctx, buffer):
        # A copy: the input's view is valid only during handle.
        self.held.append(np.array(buffer.payload))

    def flush(self, ctx):
        for payload in self.held:
            ctx.write(DataBuffer(payload.nbytes, payload=payload))


class Count(Filter):
    def __init__(self):
        self.n = 0

    def handle(self, ctx, buffer):
        self.n += int(buffer.payload.sum())

    def result(self):
        return self.n


@st.composite
def pipelines(draw):
    """(graph, placement, policy factory, queue_capacity) for a valid pipeline."""
    n_mid = draw(st.integers(min_value=0, max_value=3))
    names = ["src"] + [f"mid{i}" for i in range(n_mid)] + ["sink"]
    g = FilterGraph()
    for i, name in enumerate(names):
        if i == 0:
            g.add_filter(name, factory=lambda: Source(6), is_source=True)
        elif i == len(names) - 1:
            g.add_filter(name, factory=Count)
        elif draw(st.booleans()):
            g.add_filter(name, factory=Hold, phase_synchronised=True)
        else:
            g.add_filter(name, factory=Forward)
        if i:
            g.connect(names[i - 1], name)
    # Optional skip connection (keeps the DAG acyclic: forward only).
    if n_mid >= 1 and draw(st.booleans()):
        g.connect("src", names[-1], name="skip")

    p = Placement()
    for name in names:
        # Sources stay on one copy set: copies partition work by their
        # per-host copy_index, which is only a partition within one set.
        n_sets = 1 if name == "src" else draw(st.integers(min_value=1, max_value=2))
        hosts = draw(
            st.lists(
                st.sampled_from(HOSTS),
                min_size=n_sets,
                max_size=n_sets,
                unique=True,
            )
        )
        copies = draw(st.integers(min_value=1, max_value=2))
        # Keep sinks single-copy so the run returns one result (and the
        # verifier's P204 warning stays out of the way of the property).
        if name == "sink":
            p.place(name, [hosts[0]])
        else:
            p.place(name, [(h, copies) for h in hosts])

    name = draw(st.sampled_from(["RR", "WRR", "DD"]))
    # DD's window: its default, the smallest two, and one wider than any queue.
    windows = [{}, {"window": 1}, {"window": 2}, {"window": 64}]
    policy = make_policy_factory(
        name, **(draw(st.sampled_from(windows)) if name == "DD" else {})
    )
    queue_capacity = draw(st.integers(min_value=1, max_value=32))
    return g, p, policy, queue_capacity


def _verifies_clean_and_runs(pipeline, engine_cls, timeout=30.0, **engine_kw):
    g, p, policy, queue_capacity = pipeline
    report = verify_pipeline(
        g,
        p,
        known_hosts=HOSTS,
        policy=policy,
        queue_capacity=queue_capacity,
    )
    assert report.errors == [], [str(d) for d in report.errors]

    engine = engine_cls(
        g, p, policy=policy, queue_capacity=queue_capacity, **engine_kw
    )
    # The run happens on a helper thread, so a wedge fails the example at
    # the join instead of hanging the suite.
    outcome = []

    def target():
        try:
            outcome.append(engine.run())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"wedged: still running after {timeout}s"
    (metrics,) = outcome
    if isinstance(metrics, BaseException):
        raise metrics
    # Every buffer reaches the sink: 6 via the chain, 6 more per skip edge.
    expected = 6 * len(
        [s for s in g.streams.values() if s.dst == "sink"]
    )
    assert metrics.result == expected


@settings(max_examples=100, deadline=None)
@given(pipelines())
def test_valid_pipelines_verify_clean_and_run(pipeline):
    _verifies_clean_and_runs(pipeline, ThreadedEngine)


@settings(max_examples=20, deadline=None)
@given(pipelines())
def test_valid_pipelines_run_on_forked_copies(pipeline):
    with mock.patch.object(buffer_module, "ARENA_BYTES", 3 * PAYLOAD.nbytes):
        _verifies_clean_and_runs(
            pipeline, ProcessEngine, codec=BufferCodec(shm_threshold=64)
        )
