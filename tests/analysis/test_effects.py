"""The memoisation certifier (E7xx): declared effects and convexity.

A member certifies only when it declares ``effects="pure"``; whether the
declarations hold for the shipped code is the replay witness's question
(``tests/analysis/test_replay_witness.py``).
"""

import pytest

from repro.analysis import Effect, certify_memoisable
from repro.core import FilterGraph
from repro.errors import GraphError
from repro.viz import filters as real

#: The fused stages are ``fuse(...)`` of the R/E/Ra parts: stage name ->
#: (configuration that has it, declared effect: the worst of its parts').
FUSED_STAGE_EFFECTS = {
    "RE": ("RE-Ra-M", Effect.IO),  # reads the chunk store
    "ERa": ("R-ERa-M", Effect.STATEFUL),  # fused raster state
    "RERa": ("RERa-M", Effect.IO),  # reads + rasterises
}


def shipped_graph(config, algorithm="active"):
    """The shipped graph of ``config``, with real factories."""
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((9, 9, 9), timesteps=1, species=1, seed=2)
    profile = DatasetProfile.measured("fx", dataset, 4, 2, isovalue=0.35)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    app = IsosurfaceApp(
        profile, storage, width=16, height=16, algorithm=algorithm,
        dataset=dataset, isovalue=0.35,
    )
    return app.graph(config)


def fused_stage_graph(stage):
    """The shipped graph that has fused ``stage``."""
    return shipped_graph(FUSED_STAGE_EFFECTS[stage][0])


def pure_chain(*names):
    """``names`` connected in a line, every filter declared pure."""
    g = FilterGraph()
    for name in names:
        g.add_filter(name, factory=lambda: real.ExtractFilter(0.5), effects="pure")
    for src, dst in zip(names, names[1:]):
        g.connect(src, dst)
    return g


def test_add_filter_rejects_unknown_effects_declaration():
    g = FilterGraph()
    with pytest.raises(GraphError, match="unknown effects class"):
        g.add_filter("f", effects="sparkly")


# -- certify_memoisable -------------------------------------------------------


#: The effects class the shipped ``R-E-Ra-M`` graphs declare for each
#: real filter in repro.viz.
VIZ_FILTER_EFFECTS = {
    real.ReadFilter: Effect.IO,  # reads the chunk store
    real.ExtractFilter: Effect.PURE,  # marching cubes is a pure map
    real.RasterZFilter: Effect.STATEFUL,  # z-buffer accumulator
    real.RasterAPFilter: Effect.STATEFUL,  # active-pixel raster state
    real.MergeZFilter: Effect.STATEFUL,  # merge z-buffer + counters
    real.MergeAPFilter: Effect.STATEFUL,
}


@pytest.mark.parametrize(
    "cls",
    sorted(VIZ_FILTER_EFFECTS, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_certifier_verdict_per_viz_filter(cls):
    """Under its shipped declaration, the pure viz filter certifies and the
    stateful and I/O ones are rejected with E703."""
    algorithm = "zbuffer" if cls.__name__.endswith("ZFilter") else "active"
    graph = shipped_graph("R-E-Ra-M", algorithm)
    (name,) = [n for n, s in graph.filters.items() if type(s.factory()) is cls]
    assert Effect.parse(graph.filters[name].effects) is VIZ_FILTER_EFFECTS[cls]
    cert = certify_memoisable(graph, [name])
    if VIZ_FILTER_EFFECTS[cls] is Effect.PURE:
        assert cert.ok, [str(d) for d in cert.report]
    else:
        assert not cert.ok
        (diag,) = cert.report.diagnostics
        assert (diag.rule, diag.subject) == ("E703", name)


@pytest.mark.parametrize("stage", sorted(FUSED_STAGE_EFFECTS))
def test_certifier_verdict_per_fused_stage(stage):
    """No fused stage is pure, so none certifies: E703 names the stage."""
    spec = fused_stage_graph(stage).filters[stage]
    assert Effect.parse(spec.effects) is FUSED_STAGE_EFFECTS[stage][1]
    cert = certify_memoisable(fused_stage_graph(stage), [stage])
    assert not cert.ok
    assert "E703" in cert.report.rule_ids()
    (diag,) = cert.report.diagnostics
    assert diag.subject == stage


def test_certifier_rejects_undeclared_effects_with_e703():
    """An undeclared member is refused like an impure one, whatever its
    code does: nothing reads the code."""
    g = FilterGraph()
    g.add_filter("e", factory=lambda: real.ExtractFilter(0.5))
    cert = certify_memoisable(g, ["e"])
    assert not cert.ok
    (diag,) = cert.report.diagnostics
    assert (diag.rule, diag.subject) == ("E703", "e")
    assert "undeclared" in diag.message


@pytest.mark.parametrize("declared", sorted(e.label for e in Effect))
def test_certifier_trusts_the_declaration(declared):
    g = FilterGraph()
    g.add_filter("f", factory=lambda: real.ExtractFilter(0.5), effects=declared)
    cert = certify_memoisable(g, ["f"])
    assert cert.ok is (declared == "pure")
    assert cert.report.rule_ids() == (set() if cert.ok else {"E703"})


def test_certifier_rejects_non_convex_subgraph_with_e705():
    # a -> b -> c with {a, c} leaves b on a member-to-member path.
    cert = certify_memoisable(pure_chain("a", "b", "c"), ["a", "c"])
    assert not cert.ok
    assert cert.report.rule_ids() == {"E705"}
    assert "['b']" in str(cert.report.diagnostics[-1].message)


def test_certifier_accepts_convex_pure_chain():
    cert = certify_memoisable(pure_chain("a", "b", "c"), ["a", "b"])
    assert cert.ok
    assert cert.subgraph == ("a", "b")
    assert not cert.report


def test_certifier_rejects_empty_and_unknown_subgraphs():
    g = pure_chain("e")
    with pytest.raises(GraphError, match="empty"):
        certify_memoisable(g, [])
    with pytest.raises(GraphError, match="unknown filter"):
        certify_memoisable(g, ["ghost"])


def test_isosurface_app_memoisation_gate():
    """The extract stage certifies; every accumulator stage is rejected."""
    from repro.data import HostDisks, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    profile = DatasetProfile.synthetic(
        "fx", (8, 8, 8), nchunks=4, nfiles=2, timesteps=1, total_triangles=64
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    app = IsosurfaceApp(profile, storage, width=16, height=16)
    g = app.graph("R-E-Ra-M")
    assert certify_memoisable(g, ["E"]).ok
    for stage in ("R", "Ra", "M"):
        cert = certify_memoisable(g, [stage])
        assert not cert.ok, f"{stage} must not be memoisable"
