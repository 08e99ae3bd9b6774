"""Property-based tests for the simulated engine's pipeline invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DataBuffer,
    FilterGraph,
    Placement,
    SimFilter,
    SimSource,
    SourceItem,
)
from repro.engines.simulated import SimulatedEngine
from repro.sim import Environment, homogeneous_cluster


class Seq(SimSource):
    """Emits buffers with given sizes, split across copies."""

    def __init__(self, sizes):
        self.sizes = sizes

    def items(self, ctx):
        for i, size in enumerate(self.sizes):
            if i % ctx.total_copies != ctx.copy_index:
                continue
            yield SourceItem(
                cpu=0.001, outputs=[DataBuffer(size, tags={"seq": i})]
            )


class Relay(SimFilter):
    def __init__(self, cpu):
        self.cpu = cpu

    def cost(self, buffer):
        return self.cpu

    def react(self, buffer):
        return [buffer]


class Sink(SimFilter):
    def __init__(self):
        self.seen = []

    def cost(self, buffer):
        return 0.0

    def react(self, buffer):
        self.seen.append((buffer.tags["seq"], buffer.nbytes))
        return ()

    def result(self):
        return self.seen


def run_pipeline(sizes, policy, relay_hosts, relay_copies, src_copies, nodes):
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=nodes, cores=2)
    g = FilterGraph()
    g.add_filter("src", sim_factory=lambda: Seq(sizes), is_source=True)
    g.add_filter("relay", sim_factory=lambda: Relay(0.002))
    g.add_filter("sink", sim_factory=Sink)
    g.connect("src", "relay")
    g.connect("relay", "sink")
    p = Placement()
    p.place("src", [("node0", src_copies)])
    p.place("relay", [(f"node{h}", relay_copies) for h in relay_hosts])
    p.place("sink", ["node0"])
    return SimulatedEngine(cluster, g, p, policy=policy).run()


pipeline_args = dict(
    sizes=st.lists(
        st.integers(min_value=1, max_value=500_000), min_size=1, max_size=25
    ),
    policy=st.sampled_from(["RR", "WRR", "DD"]),
    relay_copies=st.integers(min_value=1, max_value=3),
    src_copies=st.integers(min_value=1, max_value=2),
    n_relay_hosts=st.integers(min_value=1, max_value=3),
)


@given(**pipeline_args)
@settings(max_examples=40, deadline=None)
def test_every_buffer_delivered_exactly_once(
    sizes, policy, relay_copies, src_copies, n_relay_hosts
):
    nodes = n_relay_hosts + 1
    relay_hosts = list(range(1, n_relay_hosts + 1))
    metrics = run_pipeline(
        sizes, policy, relay_hosts, relay_copies, src_copies, nodes
    )
    seen = sorted(metrics.result)
    assert seen == sorted((i, s) for i, s in enumerate(sizes))
    # Stream accounting matches.
    buffers, nbytes = metrics.stream_totals("relay->sink")
    assert buffers == len(sizes)
    assert nbytes == sum(sizes)


@given(**pipeline_args)
@settings(max_examples=20, deadline=None)
def test_runs_are_deterministic(
    sizes, policy, relay_copies, src_copies, n_relay_hosts
):
    nodes = n_relay_hosts + 1
    relay_hosts = list(range(1, n_relay_hosts + 1))
    a = run_pipeline(sizes, policy, relay_hosts, relay_copies, src_copies, nodes)
    b = run_pipeline(sizes, policy, relay_hosts, relay_copies, src_copies, nodes)
    assert a.makespan == b.makespan
    assert a.result == b.result


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=100_000), min_size=1, max_size=15
    ),
)
@settings(max_examples=25, deadline=None)
def test_dd_ack_accounting_balances(sizes):
    metrics = run_pipeline(sizes, "DD", [1, 2], 1, 1, 3)
    # One ack per buffer on each DD-routed stream (src->relay, relay->sink).
    assert metrics.ack_messages == 2 * len(sizes)


@given(
    copies=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=4, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_wrr_proportionality(copies, count):
    """WRR sends buffers linearly proportional to copies per host."""
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=3, cores=4)
    g = FilterGraph()
    g.add_filter(
        "src",
        sim_factory=lambda: Seq([100] * count),
        is_source=True,
    )
    g.add_filter("sink", sim_factory=Sink)
    g.connect("src", "sink")
    p = Placement()
    p.place("src", ["node0"])
    p.place("sink", [("node1", copies), ("node2", 1)])
    metrics = SimulatedEngine(cluster, g, p, policy="WRR").run()
    received = {"node1": 0, "node2": 0}
    for c in metrics.copies:
        if c.filter_name == "sink":
            received[c.host] += c.buffers_in
    # node1:node2 ratio == copies:1, within one full WRR cycle of slack.
    cycle = copies + 1
    expected1 = count * copies / cycle
    assert abs(received["node1"] - expected1) <= cycle
