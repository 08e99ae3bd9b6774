"""Property test: randomly generated valid pipelines verify clean and run.

A "valid" pipeline here is a random linear-ish DAG (chain plus optional
skip connections) with every filter placed on known hosts.  The property:
the static verifier reports zero ERROR diagnostics, and the threaded
engine actually runs the pipeline and delivers every buffer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_pipeline
from repro.core import DataBuffer, Filter, FilterGraph, Placement
from repro.core.policies import make_policy_factory
from repro.engines.threaded import ThreadedEngine

HOSTS = ["h0", "h1", "h2"]


class Source(Filter):
    def __init__(self, count):
        self.count = count

    def flush(self, ctx):
        for i in range(self.count):
            if i % ctx.total_copies == ctx.copy_index:
                for stream in ctx.output_streams:
                    ctx.write(
                        DataBuffer(8, payload=1, tags={"seq": i}),
                        stream=stream,
                    )


class Forward(Filter):
    def handle(self, ctx, buffer):
        ctx.write(buffer)


class Count(Filter):
    def __init__(self):
        self.n = 0

    def handle(self, ctx, buffer):
        self.n += buffer.payload

    def result(self):
        return self.n


@st.composite
def pipelines(draw):
    """(graph, placement, policy, queue_capacity) for a valid pipeline."""
    n_mid = draw(st.integers(min_value=0, max_value=3))
    names = ["src"] + [f"mid{i}" for i in range(n_mid)] + ["sink"]
    g = FilterGraph()
    for i, name in enumerate(names):
        if i == 0:
            g.add_filter(name, factory=lambda: Source(6), is_source=True)
        elif i == len(names) - 1:
            g.add_filter(name, factory=Count)
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

    policy = draw(st.sampled_from(["RR", "WRR", "DD", "RATE"]))
    queue_capacity = draw(st.integers(min_value=8, max_value=32))
    return g, p, policy, queue_capacity


@settings(max_examples=30, deadline=None)
@given(pipelines())
def test_valid_pipelines_verify_clean_and_run(pipeline):
    g, p, policy, queue_capacity = pipeline
    factory = make_policy_factory(policy)
    report = verify_pipeline(
        g,
        p,
        known_hosts=HOSTS,
        policy_for=lambda _stream: factory,
        queue_capacity=queue_capacity,
    )
    assert report.errors == [], [str(d) for d in report.errors]

    metrics = ThreadedEngine(
        g, p, policy=policy, queue_capacity=queue_capacity
    ).run()
    # Every buffer reaches the sink: 6 via the chain, 6 more per skip edge.
    expected = 6 * len(
        [s for s in g.streams.values() if s.dst == "sink"]
    )
    assert metrics.result == expected


@settings(max_examples=100, deadline=None)
@given(pipelines())
def test_valid_pipelines_have_no_protocol_wedge(pipeline):
    """The model checker never finds a wedge in a valid random pipeline.

    Zero F9xx findings, ever: ``deadlock_free`` is either ``True`` (the
    bound sufficed for an exhaustive proof — the common case) or ``None``
    (honest truncation on the largest generated placements, reported as
    F904 INFO by ``repro lint --deep``) — never ``False``.

    This is the standing evidence for the shape of the engine gate: the
    constructors run the rules that refuse a cycle (G102) and a window
    below 1 (the policy constructors), and do not explore the model,
    because a pipeline that passes those has never wedged it.
    """
    from repro.analysis import check_protocol

    g, p, policy, queue_capacity = pipeline
    factory = make_policy_factory(policy)
    result = check_protocol(
        g,
        p,
        policy_for=lambda _stream: factory,
        queue_capacity=queue_capacity,
        max_buffers=1,
        max_states=150_000,
    )
    assert result.deadlock_free is not False, result.stuck
    assert result.rule is None
    assert result.counterexample == ()
    if result.exhaustive:
        assert result.deadlock_free is True


@settings(max_examples=25, deadline=None)
@given(pipelines())
def test_injected_zero_window_always_yields_counterexample(pipeline):
    """A zero-credit window (the degenerate DD window/queue pair the real
    policy constructors refuse to build) must always produce a concrete
    counterexample trace, whatever the surrounding pipeline shape."""
    from repro.analysis import check_protocol

    g, p, _policy, queue_capacity = pipeline
    first_stream = next(iter(g.streams))
    result = check_protocol(
        g,
        p,
        window_overrides={first_stream: 0},
        queue_capacity=queue_capacity,
        max_buffers=1,
        max_states=150_000,
    )
    assert result.deadlock_free is False
    assert result.counterexample, "a wedge verdict must carry its trace"
    assert result.rule in {"F901", "F902", "F903"}
    assert result.stuck
