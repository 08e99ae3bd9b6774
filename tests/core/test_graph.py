"""Unit tests for FilterGraph construction and validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import DiagnosticReport, verify_graph
from repro.core.graph import FilterGraph, StreamSpec
from repro.errors import GraphError


def validate(g):
    """Raise the first ERROR the graph rules find, as engines do."""
    DiagnosticReport(verify_graph(g)).raise_errors()


def pipeline_graph():
    g = FilterGraph()
    g.add_filter("read", is_source=True)
    g.add_filter("extract")
    g.add_filter("raster")
    g.add_filter("merge")
    g.connect("read", "extract")
    g.connect("extract", "raster")
    g.connect("raster", "merge")
    return g


def test_pipeline_builds_and_validates():
    g = pipeline_graph()
    validate(g)
    assert [f.name for f in g.sources()] == ["read"]
    assert [f.name for f in g.sinks()] == ["merge"]
    assert g.topological_order() == ["read", "extract", "raster", "merge"]


def test_stream_default_names():
    g = pipeline_graph()
    assert set(g.streams) == {"read->extract", "extract->raster", "raster->merge"}


def test_duplicate_filter_rejected():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    with pytest.raises(GraphError):
        g.add_filter("a")


def test_empty_name_rejected():
    g = FilterGraph()
    with pytest.raises(GraphError):
        g.add_filter("")


def test_unknown_endpoint_rejected():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    with pytest.raises(GraphError):
        g.connect("a", "missing")


def test_self_loop_rejected():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    with pytest.raises(GraphError):
        g.connect("a", "a")


def test_duplicate_stream_name_rejected():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    g.add_filter("b")
    g.add_filter("c")
    g.connect("a", "b", name="s")
    with pytest.raises(GraphError):
        g.connect("a", "c", name="s")


def cyclic_graph():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    g.add_filter("b")
    g.add_filter("c")
    g.connect("a", "b")
    g.connect("b", "c")
    g.connect("c", "b")
    return g


def test_cycle_detected():
    with pytest.raises(GraphError, match="cycle"):
        validate(cyclic_graph())


def test_orphan_non_source_rejected():
    g = FilterGraph()
    g.add_filter("lonely")  # no inputs, not marked source
    with pytest.raises(GraphError, match="is_source"):
        validate(g)


def test_source_with_inputs_rejected():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    g.add_filter("b", is_source=True)
    g.connect("a", "b")
    with pytest.raises(GraphError, match="must not have inputs"):
        validate(g)


def test_empty_graph_rejected():
    with pytest.raises(GraphError, match="no filters"):
        validate(FilterGraph())


def test_upstream_of():
    g = pipeline_graph()
    assert g.upstream_of("raster") == {"read", "extract"}
    assert g.upstream_of("read") == set()
    with pytest.raises(GraphError):
        g.upstream_of("nope")


def test_downstream_of():
    g = pipeline_graph()
    assert g.downstream_of("extract") == {"raster", "merge"}
    assert g.downstream_of("merge") == set()
    with pytest.raises(GraphError, match="unknown filter 'nope'"):
        g.downstream_of("nope")


def test_cycle_message_is_the_same_edges_from_both_reporters():
    g = cyclic_graph()
    assert g.find_cycle() == [("b", "c"), ("c", "b")]
    message = "graph has a cycle: [('b', 'c'), ('c', 'b')]"
    with pytest.raises(GraphError) as raised:
        g.topological_order()
    assert str(raised.value) == message
    (g102,) = [d for d in verify_graph(g) if d.rule == "G102"]
    assert g102.message == message


def test_structural_queries_range_over_existing_filters_only():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    g.add_filter("b")
    g.connect("a", "b")
    g.streams["b->ghost"] = StreamSpec("b->ghost", "b", "ghost")
    assert g.topological_order() == ["a", "b"]
    assert g.downstream_of("a") == {"b"}
    # A dangling back edge closes no cycle: the filter it runs through
    # does not exist, which is G106's finding and nobody else's.
    g.streams["ghost->a"] = StreamSpec("ghost->a", "ghost", "a")
    assert g.upstream_of("b") == {"a"}
    assert g.find_cycle() == []
    assert g.topological_order() == ["a", "b"]
    assert set(g.adjacency()) == set(g.adjacency(reverse=True)) == {"a", "b"}
    rules = [d.rule for d in verify_graph(g)]
    assert rules.count("G106") == 2 and "G102" not in rules


@st.composite
def digraphs(draw):
    """A FilterGraph of <= 8 filters with random streams (cycles allowed)."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    g = FilterGraph()
    for name in names:
        g.add_filter(name)
    for i, (src, dst) in enumerate(edges):
        g.connect(src, dst, name=f"s{i}")  # parallel streams allowed
    return g, set(edges)


def closure(nodes, edges):
    """Brute force: (a, b) for every non-empty walk a -> ... -> b."""
    reach = set(edges)
    for k in nodes:
        reach |= {(a, b) for a in nodes for b in nodes if (a, k) in reach and (k, b) in reach}
    return reach


@given(digraphs())
def test_traversals_agree_with_brute_force(case):
    g, edges = case
    reach = closure(list(g.filters), edges)
    cyclic = any(a == b for a, b in reach)

    cycle = g.find_cycle()
    assert bool(cycle) == cyclic
    if cyclic:
        with pytest.raises(GraphError, match="graph has a cycle"):
            g.topological_order()
        # A closed walk over real streams, visiting no filter twice.
        assert set(cycle) <= edges
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assert len({src for src, _ in cycle}) == len(cycle)
    else:
        order = g.topological_order()
        assert sorted(order) == sorted(g.filters)
        assert all(order.index(a) < order.index(b) for a, b in edges)

    for name in g.filters:
        assert g.downstream_of(name) == {b for a, b in reach if a == name} - {name}
        assert g.upstream_of(name) == {a for a, b in reach if b == name} - {name}


def test_fan_out_and_fan_in():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("a")
    g.add_filter("b")
    g.add_filter("sink")
    g.connect("src", "a")
    g.connect("src", "b")
    g.connect("a", "sink")
    g.connect("b", "sink")
    validate(g)
    assert len(g.filters["src"].outputs) == 2
    assert len(g.filters["sink"].inputs) == 2
