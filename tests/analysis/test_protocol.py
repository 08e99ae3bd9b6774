"""The flow-control model checker (F9xx): proofs and counterexamples.

Two seeded deadlock configurations must yield concrete event traces (the
DD credit cycle through a tile-routed merge, and the close-while-busy
wedge behind a stalled consumer), and every shipped IsosurfaceApp
configuration must be *proved* deadlock-free by exhaustive exploration.
"""

import pytest

from repro.analysis import (
    build_model,
    check_model,
    check_protocol,
    verify_protocol,
)
from repro.core.graph import FilterGraph
from repro.core.placement import Placement
from repro.core.policies import make_policy_factory
from repro.core.tiles import TileMap

DD1 = make_policy_factory("DD", window=1)
DD = make_policy_factory("DD")
RR = make_policy_factory("RR")
TILE = make_policy_factory("TILE")


def placed(mapping):
    p = Placement()
    for name, copysets in mapping.items():
        p.place(name, copysets)
    return p


def chain_graph():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("mid")
    g.add_filter("sink")
    g.connect("src", "mid")
    g.connect("mid", "sink")
    return g


def chain_placement():
    return placed({"src": ["h0"], "mid": ["h1"], "sink": ["h2"]})


# -- proofs ------------------------------------------------------------------


def test_valid_chain_is_proved_deadlock_free():
    result = check_protocol(
        chain_graph(), chain_placement(), policy_for=lambda s: DD,
        queue_capacity=4, max_buffers=2,
    )
    assert result.deadlock_free is True
    assert result.exhaustive
    assert result.counterexample == ()
    assert result.rule is None


def test_fan_out_fan_in_is_proved_deadlock_free():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("a")
    g.add_filter("b")
    g.add_filter("sink")
    g.connect("src", "a")
    g.connect("src", "b")
    g.connect("a", "sink")
    g.connect("b", "sink")
    p = placed({"src": ["h0"], "a": ["h1"], "b": ["h2"], "sink": ["h0"]})
    result = check_protocol(g, p, policy_for=lambda s: DD, max_buffers=1)
    assert result.deadlock_free is True and result.exhaustive


def test_copyset_granularity_labels():
    model = build_model(
        chain_graph(),
        placed({"src": ["h0"], "mid": [("h0", 2), ("h1", 1)], "sink": ["h1"]}),
    )
    assert model.labels == ("src@h0", "mid@h0", "mid@h1", "sink@h1")
    # src fans out to both mid copy sets; both feed the one sink set.
    assert len(model.edges) == 2 + 2


# -- seeded counterexample 1: DD credit cycle --------------------------------


def dd_credit_cycle():
    """A feedback edge from a tile-routed merge back to the raster.

    The merge is tile-mapped but *not* phase-synchronised (the Z405
    misconfiguration): it forwards mid-run on its window-1 feedback
    stream while the raster keeps its inbound queue full — credits can
    then wedge against queue slots.
    """
    g = FilterGraph()
    g.add_filter("seed", is_source=True)
    g.add_filter("ra")
    g.add_filter("tm", tile_map=TileMap.rows(8, 8, 2, 2))
    g.connect("seed", "ra")
    g.connect("ra", "tm")
    g.connect("tm", "ra", name="feedback")
    p = placed({"seed": ["h0"], "ra": ["h1"], "tm": ["h2"]})
    return g, p


def test_dd_credit_cycle_yields_f902_counterexample():
    g, p = dd_credit_cycle()
    result = check_protocol(
        g, p,
        policy_for=lambda s: TILE if s == "ra->tm" else DD1,
        queue_capacity=2, max_buffers=5, max_states=300_000,
    )
    assert result.deadlock_free is False
    assert result.rule == "F902"
    # The trace is a concrete event sequence ending in the wedge.
    assert len(result.counterexample) >= 5
    assert any("sends a buffer" in e for e in result.counterexample)
    assert any("window full" in s for s in result.stuck)
    assert any("queue of tm@h2 is full" in s for s in result.stuck)


def test_dd_credit_cycle_diagnostic_carries_the_trace():
    g, p = dd_credit_cycle()
    diags = verify_protocol(
        g, p,
        policy_for=lambda s: TILE if s == "ra->tm" else DD1,
        queue_capacity=2, max_states=300_000, max_buffers=5,
    )
    hits = [d for d in diags if d.rule == "F902"]
    assert hits, [d.rule for d in diags]
    assert "Offending event sequence" in hits[0].hint
    assert "->" in hits[0].hint


# -- seeded counterexample 2: close-while-busy -------------------------------


def test_close_while_busy_yields_f903_counterexample():
    result = check_protocol(
        chain_graph(), chain_placement(), policy_for=lambda s: RR,
        queue_capacity=1, stalled={"mid@h1"}, max_buffers=3,
    )
    assert result.deadlock_free is False
    assert result.rule == "F903"
    assert result.counterexample  # concrete events, not just a verdict
    assert any(
        "queue of mid@h1 is full" in s for s in result.stuck
    )
    # EOW delivery is wedged too: the sink never hears the close.
    assert any("waits for end-of-work" in s for s in result.stuck)


def test_stalled_consumer_with_window_classifies_as_credit_wedge():
    result = check_protocol(
        chain_graph(), chain_placement(), policy_for=lambda s: DD1,
        queue_capacity=1, stalled={"mid@h1"}, max_buffers=3,
    )
    assert result.deadlock_free is False
    assert result.rule == "F902"  # the window wedges before the queue


# -- window override hook (used by the property tests) -----------------------


def test_zero_window_override_always_wedges():
    result = check_protocol(
        chain_graph(), chain_placement(),
        window_overrides={"src->mid": 0}, max_buffers=1,
    )
    assert result.deadlock_free is False
    assert result.counterexample


# -- the lint wrapper (verify_protocol) ---------------------------------------


def test_verify_protocol_clean_on_valid_chain():
    assert verify_protocol(
        chain_graph(), chain_placement(), policy_for=lambda s: DD
    ) == []


def test_verify_protocol_truncation_is_info_f904():
    g, p = dd_credit_cycle()
    # A bound too small for any verdict: F904 INFO, not a false proof.
    diags = verify_protocol(
        chain_graph(), chain_placement(), policy_for=lambda s: DD,
        max_states=3,
    )
    assert [d.rule for d in diags] == ["F904"]
    assert diags[0].severity.label == "info"


def test_verify_protocol_empty_graph_is_silent():
    g = FilterGraph()
    g.add_filter("only", is_source=True)
    assert verify_protocol(g) == []


# -- the shipped configurations ----------------------------------------------


@pytest.mark.parametrize("config", ["R-E-Ra-M", "RE-Ra-M", "R-ERa-M", "RERa-M"])
def test_isosurface_configs_proved_deadlock_free(config):
    """Exhaustive proof for every shipped example configuration.

    The largest (R-E-Ra-M on two hosts) explores ~210k states; `repro
    lint --deep` at its default bound truncates at 4k states (F904 INFO),
    and no engine explores the model at all, so the complete proof lives
    here and in CI's `repro lint --deep --protocol-max-states 500000`.
    """
    from repro.data import HostDisks, StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    profile = DatasetProfile.synthetic(
        "fp", (8, 8, 8), nchunks=4, nfiles=2, timesteps=1, total_triangles=64
    )
    storage = StorageMap.balanced(
        profile.files, [HostDisks("h0"), HostDisks("h1")]
    )
    app = IsosurfaceApp(profile, storage, width=16, height=16)
    g = app.graph(config)
    p = app.placement(config, compute_hosts=["h0", "h1"])
    overrides = app.policy_overrides(config)
    result = check_protocol(
        g, p,
        policy_for=lambda s: overrides.get(s, DD),
        queue_capacity=4, max_buffers=1, max_states=500_000,
    )
    assert result.deadlock_free is True, result.stuck
    assert result.exhaustive
