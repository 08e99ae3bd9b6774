"""Unit tests for Placement."""

import pytest

from repro.analysis import DiagnosticReport, verify_placement
from repro.core.graph import FilterGraph
from repro.core.placement import CopySetSpec, Placement
from repro.errors import PlacementError


def validate(p, g, known_hosts):
    """Raise the first ERROR the placement rules find, as engines do."""
    DiagnosticReport(verify_placement(g, p, known_hosts)).raise_errors()


def graph2():
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("sink")
    g.connect("src", "sink")
    return g


def test_place_accepts_mixed_entry_forms():
    p = Placement()
    p.place("f", ["h0", ("h1", 3), CopySetSpec("h2", 2)])
    sets = p.copysets("f")
    assert [(s.host, s.copies) for s in sets] == [("h0", 1), ("h1", 3), ("h2", 2)]
    assert p.total_copies("f") == 6
    assert p.hosts_of("f") == ["h0", "h1", "h2"]


def test_spread():
    p = Placement().spread("f", ["a", "b"], copies_per_host=2)
    assert p.total_copies("f") == 4


def test_zero_copies_rejected():
    with pytest.raises(PlacementError):
        CopySetSpec("h", 0)


def test_duplicate_host_rejected():
    with pytest.raises(PlacementError):
        Placement().place("f", ["h0", ("h0", 2)])


def test_empty_placement_rejected():
    with pytest.raises(PlacementError):
        Placement().place("f", [])


def test_unplaced_filter_query_raises():
    with pytest.raises(PlacementError):
        Placement().copysets("missing")


def test_validate_happy_path():
    g = graph2()
    p = Placement().place("src", ["h0"]).place("sink", ["h1"])
    validate(p, g, ["h0", "h1"])


def test_validate_missing_filter():
    g = graph2()
    p = Placement().place("src", ["h0"])
    with pytest.raises(PlacementError, match="no placement"):
        validate(p, g, ["h0"])


def test_validate_unknown_host():
    g = graph2()
    p = Placement().place("src", ["h0"]).place("sink", ["ghost"])
    with pytest.raises(PlacementError, match="unknown host"):
        validate(p, g, ["h0"])


def test_validate_extra_filter():
    g = graph2()
    p = (
        Placement()
        .place("src", ["h0"])
        .place("sink", ["h0"])
        .place("phantom", ["h0"])
    )
    with pytest.raises(PlacementError, match="not in the graph"):
        validate(p, g, ["h0"])


def test_chaining_returns_self():
    p = Placement()
    assert p.place("f", ["h"]) is p
    assert p.spread("g", ["h"]) is p
    assert set(p.placed_filters()) == {"f", "g"}
