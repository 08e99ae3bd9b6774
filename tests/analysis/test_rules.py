"""Per-rule fixtures for the static pipeline verifier.

Every ``G``/``P``/``W``/``Z`` rule in the catalogue gets one graph
that triggers it and one that passes it clean.  The ``E7xx`` certifier
rules live in ``test_effects.py``.
"""

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    rule_catalogue,
    verify_flow,
    verify_graph,
    verify_pipeline,
    verify_placement,
)
from repro.core.graph import FilterGraph
from repro.core.placement import Placement
from repro.core.policies import make_policy_factory, stream_policies
from repro.core.tiles import TileMap
from repro.errors import AnalysisError, GraphError, PlacementError


def linear_graph(*names, source=True):
    g = FilterGraph()
    for i, name in enumerate(names):
        g.add_filter(name, is_source=(source and i == 0))
        if i:
            g.connect(names[i - 1], name)
    return g


def rules_of(diags):
    return {d.rule for d in diags}


def assert_rule(diags, rule):
    """The rule fired, and its diagnostic carries a fix hint."""
    hits = [d for d in diags if d.rule == rule]
    assert hits, f"{rule} did not fire; got {rules_of(diags) or '{}'}"
    for d in hits:
        assert d.hint, f"{rule} has no fix hint"
        assert d.message
    return hits


# -- catalogue sanity --------------------------------------------------------


def test_catalogue_rules_have_hints_and_stable_ids():
    catalogue = rule_catalogue()
    assert [rule.id for rule in catalogue] == [
        "E703", "E705", "E706",
        "G101", "G102", "G103", "G104", "G105", "G106", "G107",
        "P201", "P202", "P203", "P204",
        "W301", "W302", "W303",
        "Z401", "Z403",
    ]
    for rule in catalogue:
        assert rule.hint, f"{rule.id} missing default fix hint"


def test_severity_ordering_and_labels():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert Severity.ERROR.label == "error"
    assert Severity.parse("warning") is Severity.WARNING
    with pytest.raises(ValueError):
        Severity.parse("fatal")


# -- G1xx graph structure ----------------------------------------------------


def test_g101_empty_graph():
    assert_rule(verify_graph(FilterGraph()), "G101")


def test_g102_cycle():
    g = linear_graph("a", "b", "c")
    g.connect("c", "b", name="back")
    assert_rule(verify_graph(g), "G102")


def test_g103_orphan_filter():
    g = linear_graph("a", "b")
    g.add_filter("floating")  # no inputs, not a source
    hits = assert_rule(verify_graph(g), "G103")
    assert hits[0].subject == "floating"


def test_g104_source_with_inputs():
    g = FilterGraph()
    g.add_filter("a", is_source=True)
    g.add_filter("b", is_source=True)
    g.connect("a", "b")
    assert_rule(verify_graph(g), "G104")


def test_g105_no_source():
    g = FilterGraph()
    g.add_filter("a")
    g.add_filter("b")
    g.connect("a", "b")
    diags = verify_graph(g)
    assert_rule(diags, "G105")
    assert_rule(diags, "G103")  # 'a' is also an orphan


def test_g106_dangling_stream():
    g = linear_graph("a", "b", "c")
    del g.filters["c"]  # manual spec-table mutation
    assert_rule(verify_graph(g), "G106")


def test_g107_unreachable_filter_is_warning():
    g = linear_graph("a", "b")
    g.add_filter("island", is_source=False)
    g.add_filter("island2")
    g.connect("island", "island2")
    # island has inputs? no -> it is G103 too; give it a feeder loop-free
    diags = verify_graph(g)
    hits = [d for d in diags if d.rule == "G107"]
    assert {d.subject for d in hits} >= {"island2"}
    assert all(d.severity is Severity.WARNING for d in hits)


def test_clean_graph_has_no_graph_diagnostics():
    g = linear_graph("read", "extract", "raster", "merge")
    assert verify_graph(g) == []


# -- P2xx placement ----------------------------------------------------------


def placed(g, mapping):
    p = Placement()
    for name, copysets in mapping.items():
        p.place(name, copysets)
    return p


def test_p201_unplaced_filter():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"]})
    hits = assert_rule(verify_placement(g, p), "P201")
    assert hits[0].subject == "b"


def test_p202_placed_filter_not_in_graph():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": ["h0"], "ghost": ["h0"]})
    assert_rule(verify_placement(g, p), "P202")


def test_p203_unknown_host_only_with_cluster():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": ["mars"]})
    assert_rule(verify_placement(g, p, known_hosts=["h0", "h1"]), "P203")
    # Without a cluster host list the check is skipped.
    assert "P203" not in rules_of(verify_placement(g, p))


def test_p204_multi_copy_sink_warning():
    g = linear_graph("a", "sink")
    p = placed(g, {"a": ["h0"], "sink": [("h0", 2)]})
    hits = assert_rule(verify_placement(g, p), "P204")
    assert hits[0].severity is Severity.WARNING


def test_p204_silent_for_tile_mapped_sink():
    # One frame per owner is the strip pipeline's contract (assemble_strips
    # reads it; Z403 fixes its length), not a stray multi-copy sink.
    g = linear_graph("a", "sink")
    g.filters["sink"].tile_map = TileMap.grid(8, 8, 2, 1)
    g.filters["sink"].phase_synchronised = True
    p = placed(g, {"a": ["h0"], "sink": [("h0", 1), ("h1", 1)]})
    assert verify_placement(g, p) == []


def test_clean_placement_has_no_diagnostics():
    g = linear_graph("a", "b", "c")
    p = placed(g, {"a": ["h0"], "b": [("h0", 2), ("h1", 2)], "c": ["h1"]})
    assert verify_placement(g, p, known_hosts=["h0", "h1"]) == []


# -- W3xx flow control / Z4xx phases ----------------------------------------


def flow(g, p, policy="DD", queue_capacity=8, **kw):
    factory = make_policy_factory(policy, **kw)
    return verify_flow(g, p, lambda _stream: factory, queue_capacity)


def test_w301_wrr_degenerates_to_rr():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": [("h0", 1), ("h1", 1)]})
    assert_rule(flow(g, p, policy="WRR"), "W301")


def test_w301_silent_with_real_weights():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": [("h0", 2), ("h1", 1)]})
    assert "W301" not in rules_of(flow(g, p, policy="WRR"))


def test_w302_window_exceeds_queue_capacity():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": ["h0"]})
    assert_rule(flow(g, p, policy="DD", queue_capacity=4, window=16), "W302")
    assert "W302" not in rules_of(
        flow(g, p, policy="DD", queue_capacity=16, window=4)
    )


def test_w303_window_one_serialises_sends():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": ["h0"]})
    assert_rule(flow(g, p, policy="DD", window=1), "W303")
    assert "W303" not in rules_of(flow(g, p, policy="DD", window=4))


def test_rr_policy_triggers_no_flow_rules():
    g = linear_graph("a", "b")
    p = placed(g, {"a": ["h0"], "b": [("h0", 1), ("h1", 1)]})
    assert flow(g, p, policy="RR") == []


def test_z401_phase_synchronised_fan_in():
    g = FilterGraph()
    g.add_filter("ra0", is_source=True)
    g.add_filter("ra1", is_source=True)
    g.add_filter("merge", phase_synchronised=True)
    g.connect("ra0", "merge")
    g.connect("ra1", "merge")
    p = placed(g, {"ra0": ["h0"], "ra1": ["h1"], "merge": ["h0"]})
    hits = assert_rule(flow(g, p), "Z401")
    assert hits[0].severity is Severity.ERROR


def test_z401_silent_for_single_input_phase_filter():
    g = linear_graph("a", "b")
    g.filters["b"].phase_synchronised = True
    p = placed(g, {"a": ["h0"], "b": ["h0"]})
    assert "Z401" not in rules_of(flow(g, p))


# -- Z403 tile owners vs copy sets -------------------------------------------


def tile_graph(tile_map):
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("strips", phase_synchronised=True, tile_map=tile_map)
    g.connect("src", "strips")
    return g


def test_z403_owner_count_vs_copy_sets():
    g = tile_graph(TileMap.grid(8, 8, 2, 1))  # 2 owners
    p = placed(g, {"src": ["h0"], "strips": ["h1"]})  # but 1 copy set
    hits = assert_rule(verify_placement(g, p), "Z403")
    assert "2 owners" in hits[0].message


def test_z403_multi_copy_set():
    g = tile_graph(TileMap.grid(8, 8, 2, 1))
    p = placed(g, {"src": ["h0"], "strips": [("h1", 2), ("h2", 1)]})
    hits = assert_rule(verify_placement(g, p), "Z403")
    assert any("share a queue" in d.message for d in hits)


def test_z403_silent_for_one_single_copy_set_per_owner():
    g = tile_graph(TileMap.grid(8, 8, 2, 1))
    p = placed(g, {"src": ["h0"], "strips": [("h1", 1), ("h2", 1)]})
    assert "Z403" not in rules_of(verify_placement(g, p))


def test_tiled_app_pipeline_is_clean():
    # The strip pipeline on owner_hosts is wired the way Z403 demands.
    from repro.data import HostDisks, StorageMap
    from repro.viz.partitioned import build_partitioned_graph, owner_hosts
    from repro.viz.profile import DatasetProfile

    profile = DatasetProfile.synthetic(
        "tiny", (8, 8, 8), nchunks=4, nfiles=2, timesteps=1,
        total_triangles=100,
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    g = build_partitioned_graph(profile, storage, 0, 16, 16, regions=3)
    p = (
        Placement()
        .place("RE", ["h0"])
        .place("Ra", owner_hosts(3, ["h0", "h1"], "h0"))
    )
    report = verify_pipeline(g, p, policy_for=stream_policies(g, "DD"))
    assert not report.errors


# -- report / wrapper behaviour ---------------------------------------------


def test_verify_pipeline_orders_errors_first():
    g = linear_graph("a", "b")
    g.add_filter("floating")  # G103 ERROR
    g.add_filter("tail")
    g.connect("floating", "tail")  # G107 WARNING
    p = placed(g, {"a": ["h0"], "b": ["h0"], "floating": ["h0"], "tail": ["h0"]})
    report = verify_pipeline(g, p)
    sevs = [d.severity for d in report.diagnostics]
    assert {Severity.ERROR, Severity.WARNING} <= set(sevs)
    assert sevs == sorted(sevs, reverse=True)
    assert report.max_severity is Severity.ERROR


def test_raise_errors_maps_rule_scope_to_exception():
    g = FilterGraph()
    with pytest.raises(GraphError, match="no filters"):
        DiagnosticReport(verify_graph(g)).raise_errors()

    g = linear_graph("a", "b")
    p = Placement().place("a", ["h0"])
    with pytest.raises(PlacementError, match="has no placement"):
        DiagnosticReport(verify_placement(g, p)).raise_errors()


def test_raise_errors_uses_analysis_error_for_mixed_scopes():
    g = FilterGraph()
    g.add_filter("ra0", is_source=True)
    g.add_filter("ra1", is_source=True)
    g.add_filter("merge", phase_synchronised=True)
    g.connect("ra0", "merge")
    g.connect("ra1", "merge")
    p = placed(g, {"ra0": ["h0"], "ra1": ["h0"], "merge": ["h0"]})
    report = verify_pipeline(
        g, p, policy_for=lambda _s: make_policy_factory("DD")
    )
    with pytest.raises(AnalysisError) as err:
        report.raise_errors()
    assert err.value.report is report


def test_raise_errors_ignores_warnings():
    g = linear_graph("a", "sink")
    p = placed(g, {"a": ["h0"], "sink": [("h0", 2)]})
    report = DiagnosticReport(verify_placement(g, p))
    assert report.warnings and not report.errors
    report.raise_errors()  # no raise


def test_graph_validate_is_thin_wrapper():
    g = linear_graph("a", "b")
    g.connect("b", "a", name="back")
    with pytest.raises(GraphError, match="cycle"):
        g.validate()


def test_topological_order_no_longer_revalidates():
    g = linear_graph("a", "b")
    g.add_filter("floating")  # validate() would reject this graph...
    order = g.topological_order()  # ...but topo sort alone is fine
    assert set(order) == {"a", "b", "floating"}


def test_diagnostic_to_dict_roundtrip_fields():
    g = linear_graph("a", "sink")
    p = placed(g, {"a": ["h0"], "sink": [("h0", 2)]})
    (diag,) = verify_placement(g, p)
    d = diag.to_dict()
    assert d["rule"] == "P204"
    assert d["severity"] == "warning"
    assert d["subject"] == "sink"
    assert d["hint"]
    assert isinstance(diag, Diagnostic)
    assert "P204" in str(diag)
