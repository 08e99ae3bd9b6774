"""Effect/purity inference (E7xx) and the memoisation certifier.

The acceptance bar: :func:`certify_memoisable` rejects every stateful or
I/O filter shipped in ``repro.viz`` and accepts the pure ones, with one
test per filter class.
"""

import pytest

from repro.analysis import (
    Effect,
    certify_memoisable,
    graph_effects,
    infer_class_effects,
    spec_effects,
    subgraph_effect,
    verify_effects,
)
from repro.core import DataBuffer, Filter, FilterGraph
from repro.core.fuse import FusedFilter
from repro.errors import GraphError
from repro.viz import filters as real
from repro.viz import tiled


# -- class-level inference ----------------------------------------------------

#: Expected effects class of every real filter in repro.viz, inferred
#: from its AST alone (no declaration in play).
VIZ_FILTER_EFFECTS = {
    real.ReadFilter: Effect.IO,  # flush reads self.dataset.chunk_field
    real.ExtractFilter: Effect.PURE,  # marching cubes is a pure map
    real.RasterZFilter: Effect.STATEFUL,  # z-buffer accumulator
    real.RasterAPFilter: Effect.STATEFUL,  # active-pixel raster state
    real.MergeZFilter: Effect.STATEFUL,  # merge z-buffer + counters
    real.MergeAPFilter: Effect.STATEFUL,
    tiled.TileMergeFilter: Effect.STATEFUL,  # per-tile slab accumulators
    tiled.TileGatherFilter: Effect.STATEFUL,  # assembles the framebuffer
}


@pytest.mark.parametrize(
    "cls,expected",
    sorted(VIZ_FILTER_EFFECTS.items(), key=lambda kv: kv[0].__name__),
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_viz_filter_inference(cls, expected):
    summary = infer_class_effects(cls)
    assert summary.effect is expected, (
        f"{cls.__name__}: inferred {summary.label}, expected "
        f"{expected.label} ({summary.reasons})"
    )
    if expected is not Effect.PURE:
        assert summary.reasons, "impure classification must carry evidence"


#: The fused stages are not classes but ``fuse(...)`` of the parts above:
#: stage name -> (configuration that has it, expected effect).
FUSED_STAGE_EFFECTS = {
    "RE": ("RE-Ra-M", Effect.IO),  # reads the chunk store
    "ERa": ("R-ERa-M", Effect.STATEFUL),  # fused raster state
    "RERa": ("RERa-M", Effect.IO),  # reads + rasterises
}


def fused_stage_graph(stage):
    """The shipped graph that has fused ``stage``, with real factories."""
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    dataset = ParSSimDataset((9, 9, 9), timesteps=1, species=1, seed=2)
    profile = DatasetProfile.measured("fx", dataset, 4, 2, isovalue=0.35)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    app = IsosurfaceApp(
        profile, storage, width=16, height=16, dataset=dataset, isovalue=0.35
    )
    return app.graph(FUSED_STAGE_EFFECTS[stage][0])


@pytest.mark.parametrize("stage", sorted(FUSED_STAGE_EFFECTS))
def test_fused_stage_inference(stage):
    """A fused stage's effect is the worst of its parts', and the graph
    declares exactly that."""
    expected = FUSED_STAGE_EFFECTS[stage][1]
    spec = fused_stage_graph(stage).filters[stage]
    fused = spec.factory()
    assert isinstance(fused, FusedFilter)
    summaries = [infer_class_effects(type(part)) for part in fused.parts]
    assert max(s.effect for s in summaries) is expected
    assert Effect.parse(spec.effects) is expected
    assert any(s.reasons for s in summaries), (
        "impure classification must carry evidence"
    )


def test_inference_walks_base_classes():
    # _RasterBase carries the camera latch both rasters inherit.
    summary = infer_class_effects(real.RasterAPFilter)
    assert any("_active_camera" in r or "_latch" in r for r in summary.reasons)


def test_inference_is_cached():
    assert infer_class_effects(real.ExtractFilter) is infer_class_effects(
        real.ExtractFilter
    )


class NondetFilter(Filter):
    def handle(self, ctx, buffer):
        import random

        ctx.write(DataBuffer(8, payload=random.random()))


class ArgMutator(Filter):
    def handle(self, ctx, buffer):
        buffer.tags["seen"] = True
        ctx.write(buffer)


def test_nondeterminism_detected():
    summary = infer_class_effects(NondetFilter)
    assert summary.effect is Effect.NONDETERMINISTIC


def test_escaping_argument_mutation_is_stateful():
    summary = infer_class_effects(ArgMutator)
    assert summary.effect is Effect.STATEFUL
    assert any("escaping" in r for r in summary.reasons)


# -- spec-level resolution ----------------------------------------------------


def one_filter_graph(cls, name="f", **kwargs):
    g = FilterGraph()
    g.add_filter(name, factory=lambda: cls(), **kwargs)
    return g


def test_spec_effects_resolves_closure_factories():
    g = FilterGraph()
    g.add_filter("e", factory=lambda: real.ExtractFilter(0.5))
    assert spec_effects(g.filters["e"]).effect is Effect.PURE


def test_spec_effects_resolves_module_attr_factories():
    g = FilterGraph()
    g.add_filter("m", factory=lambda: real.MergeZFilter(4, 4))
    assert spec_effects(g.filters["m"]).effect is Effect.STATEFUL


def test_declaration_wins_over_inference():
    g = FilterGraph()
    g.add_filter("e", factory=lambda: real.ExtractFilter(0.5), effects="io")
    summary = spec_effects(g.filters["e"])
    assert summary.effect is Effect.IO
    assert summary.source == "declared"


def test_sources_are_at_least_io():
    g = FilterGraph()
    g.add_filter("src", factory=lambda: real.ExtractFilter(0.5), is_source=True)
    assert spec_effects(g.filters["src"]).effect is Effect.IO


def test_unresolvable_non_source_is_unknown():
    g = FilterGraph()
    g.add_filter("mystery")  # no factory at all
    summary = spec_effects(g.filters["mystery"])
    assert summary.effect is None
    assert summary.label == "unknown"


def test_add_filter_rejects_unknown_effects_declaration():
    g = FilterGraph()
    with pytest.raises(GraphError, match="unknown effects class"):
        g.add_filter("f", effects="sparkly")


def test_subgraph_rollup_is_worst_member():
    g = FilterGraph()
    g.add_filter("e", factory=lambda: real.ExtractFilter(0.5))
    g.add_filter("m", factory=lambda: real.MergeZFilter(4, 4))
    g.connect("e", "m")
    summaries = graph_effects(g)
    assert subgraph_effect(summaries, ["e"]) is Effect.PURE
    assert subgraph_effect(summaries, ["e", "m"]) is Effect.STATEFUL


# -- E701/E702 graph rules ----------------------------------------------------


def test_e701_declared_effect_mismatch():
    g = FilterGraph()
    g.add_filter("m", factory=lambda: real.MergeZFilter(4, 4), effects="pure")
    diags = verify_effects(g)
    assert [d.rule for d in diags] == ["E701"]
    assert "stateful" in diags[0].message


def test_e701_silent_when_declaration_is_conservative():
    # Declaring a *worse* effect than inferred is allowed.
    g = FilterGraph()
    g.add_filter("e", factory=lambda: real.ExtractFilter(0.5), effects="io")
    assert verify_effects(g) == []


def test_e702_nondeterministic_filter():
    g = FilterGraph()
    g.add_filter("n", factory=NondetFilter)
    diags = verify_effects(g)
    assert [d.rule for d in diags] == ["E702"]


# -- certify_memoisable -------------------------------------------------------


@pytest.mark.parametrize(
    "cls",
    sorted(VIZ_FILTER_EFFECTS, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_certifier_verdict_per_viz_filter(cls):
    """Pure viz filters certify; stateful/IO ones are rejected with E703."""
    g = one_filter_graph(cls)
    cert = certify_memoisable(g, ["f"])
    if VIZ_FILTER_EFFECTS[cls] is Effect.PURE:
        assert cert.ok, [str(d) for d in cert.report]
        assert cert.effect is Effect.PURE
    else:
        assert not cert.ok
        assert "E703" in cert.report.rule_ids()
        (diag,) = cert.report.diagnostics
        assert diag.subject == "f"


@pytest.mark.parametrize("stage", sorted(FUSED_STAGE_EFFECTS))
def test_certifier_verdict_per_fused_stage(stage):
    """No fused stage is pure, so none certifies: E703 names the stage."""
    cert = certify_memoisable(fused_stage_graph(stage), [stage])
    assert not cert.ok
    assert "E703" in cert.report.rule_ids()
    (diag,) = cert.report.diagnostics
    assert diag.subject == stage


def test_certifier_rejects_unknown_effects_with_e704():
    g = FilterGraph()
    g.add_filter("mystery")
    cert = certify_memoisable(g, ["mystery"])
    assert not cert.ok
    assert "E704" in cert.report.rule_ids()


def test_certifier_rejects_non_convex_subgraph_with_e705():
    # a -> b -> c with {a, c} leaves b on a member-to-member path.
    g = FilterGraph()
    for name in ("a", "b", "c"):
        g.add_filter(name, factory=lambda: real.ExtractFilter(0.5))
    g.connect("a", "b")
    g.connect("b", "c")
    cert = certify_memoisable(g, ["a", "c"])
    assert not cert.ok
    assert "E705" in cert.report.rule_ids()
    assert "['b']" in str(cert.report.diagnostics[-1].message)


def test_certifier_accepts_convex_pure_chain():
    g = FilterGraph()
    for name in ("a", "b", "c"):
        g.add_filter(name, factory=lambda: real.ExtractFilter(0.5))
    g.connect("a", "b")
    g.connect("b", "c")
    cert = certify_memoisable(g, ["a", "b"])
    assert cert.ok
    assert cert.effect is Effect.PURE
    assert set(cert.members) == {"a", "b"}


def test_certifier_rejects_empty_and_unknown_subgraphs():
    g = one_filter_graph(real.ExtractFilter)
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
