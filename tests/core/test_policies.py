"""Unit tests for RR / WRR / DD / tile-routed writer policies."""

import pytest

from repro.core.graph import FilterGraph
from repro.core.policies import (
    DemandDriven,
    RoundRobin,
    Target,
    TileRouted,
    WeightedRoundRobin,
    make_policy_factory,
    stream_policies,
)
from repro.core.tiles import TileMap
from repro.errors import ConfigurationError


def targets(*spec, local_host=None):
    """Build targets from (host, copies) pairs."""
    return [
        Target(i, host, copies, local=(host == local_host))
        for i, (host, copies) in enumerate(spec)
    ]


def test_rr_cycles_evenly():
    policy = RoundRobin()
    policy.bind(targets(("a", 1), ("b", 1), ("c", 1)))
    picks = [policy.select().host for _ in range(6)]
    assert picks == ["a", "b", "c", "a", "b", "c"]


def test_rr_ignores_copy_counts():
    policy = RoundRobin()
    policy.bind(targets(("a", 4), ("b", 1)))
    picks = [policy.select().host for _ in range(4)]
    assert picks == ["a", "b", "a", "b"]


def test_wrr_proportional_to_copies():
    policy = WeightedRoundRobin()
    policy.bind(targets(("a", 2), ("b", 1)))
    picks = [policy.select().host for _ in range(6)]
    assert picks.count("a") == 4
    assert picks.count("b") == 2


def test_wrr_interleaves():
    policy = WeightedRoundRobin()
    policy.bind(targets(("a", 2), ("b", 1)))
    # One cycle: round 0 -> a, b ; round 1 -> a.
    assert [policy.select().host for _ in range(3)] == ["a", "b", "a"]


def test_wrr_equal_copies_behaves_like_rr():
    policy = WeightedRoundRobin()
    policy.bind(targets(("a", 2), ("b", 2)))
    picks = [policy.select().host for _ in range(4)]
    assert picks == ["a", "b", "a", "b"]


def test_dd_prefers_least_unacked():
    policy = DemandDriven(window=8)
    tgts = targets(("a", 1), ("b", 1))
    policy.bind(tgts)
    first = policy.select()
    policy.on_sent(first)
    second = policy.select()
    policy.on_sent(second)
    assert {first.host, second.host} == {"a", "b"}
    # Ack "a" -> next pick must be the acked (now least-loaded) target.
    policy.on_ack(tgts[0])
    assert policy.select().host == "a"


def test_dd_window_blocks():
    policy = DemandDriven(window=2)
    tgts = targets(("a", 1))
    policy.bind(tgts)
    for _ in range(2):
        policy.on_sent(policy.select())
    assert policy.select() is None  # window full
    policy.on_ack(tgts[0])
    assert policy.select() is not None


def test_dd_local_tiebreak():
    policy = DemandDriven(window=4)
    policy.bind(targets(("remote", 1), ("local", 1), local_host="local"))
    pick = policy.select()
    assert pick.host == "local"


def test_dd_local_tiebreak_disabled():
    policy = DemandDriven(window=4, prefer_local=False)
    policy.bind(targets(("remote", 1), ("local", 1), local_host="local"))
    assert policy.select().host == "remote"  # first in stable order


def test_dd_load_shifts_to_faster_consumer():
    # Simulate: target "slow" never acks, target "fast" acks instantly.
    policy = DemandDriven(window=4)
    tgts = targets(("slow", 1), ("fast", 1))
    policy.bind(tgts)
    sent = {"slow": 0, "fast": 0}
    for _ in range(20):
        pick = policy.select()
        if pick is None:
            break
        policy.on_sent(pick)
        sent[pick.host] += 1
        if pick.host == "fast":
            policy.on_ack(pick)
    assert sent["fast"] > sent["slow"]
    # "slow" receives exactly one buffer: after that its unacked count stays
    # above "fast"'s (which acks instantly), so it is never selected again.
    assert sent["slow"] == 1


def test_dd_spurious_ack_rejected():
    policy = DemandDriven()
    tgts = targets(("a", 1))
    policy.bind(tgts)
    with pytest.raises(ConfigurationError):
        policy.on_ack(tgts[0])


def test_dd_window_validation():
    with pytest.raises(ConfigurationError):
        DemandDriven(window=0)


def test_bind_empty_rejected():
    with pytest.raises(ConfigurationError):
        RoundRobin().bind([])


def test_sent_counter_maintained():
    policy = RoundRobin()
    tgts = targets(("a", 1), ("b", 1))
    policy.bind(tgts)
    for _ in range(5):
        policy.on_sent(policy.select())
    assert tgts[0].sent == 3
    assert tgts[1].sent == 2


def test_factory_registry():
    assert isinstance(make_policy_factory("rr")(), RoundRobin)
    assert isinstance(make_policy_factory("WRR")(), WeightedRoundRobin)
    dd = make_policy_factory("DD", window=9)()
    assert isinstance(dd, DemandDriven)
    assert dd.window == 9
    with pytest.raises(ConfigurationError):
        make_policy_factory("bogus")


def test_factory_instances_do_not_share_state():
    factory = make_policy_factory("RR")
    p1, p2 = factory(), factory()
    p1.bind(targets(("a", 1), ("b", 1)))
    p2.bind(targets(("a", 1), ("b", 1)))
    p1.select()
    assert p2.select().host == "a"  # p2 unaffected by p1's cursor


def test_wrr_rebind_resets_cursor():
    # Rebinding to a new target set must restart the cycle: a stale cursor
    # would skew the first picks toward whatever offset the old cycle
    # happened to stop at.
    policy = WeightedRoundRobin()
    policy.bind(targets(("a", 2), ("b", 1)))
    for _ in range(2):  # advance mid-cycle: a, b consumed, cursor at 2
        policy.select()
    policy.bind(targets(("c", 1), ("d", 1)))
    assert [policy.select().host for _ in range(4)] == ["c", "d", "c", "d"]


def test_wrr_rebind_same_targets_restarts_cycle():
    policy = WeightedRoundRobin()
    new = targets(("a", 2), ("b", 1))
    policy.bind(new)
    policy.select()  # cursor at 1
    policy.bind(new)
    assert policy.select().host == "a"


# -- TileRouted (content routing) --------------------------------------------


def tile_policy(n=3):
    policy = TileRouted()
    policy.bind(targets(*[(f"h{i}", 1) for i in range(n)]))
    return policy


def test_tile_routes_by_owner_tag():
    policy = tile_policy(3)
    assert policy.route({"tile_owner": 2}).host == "h2"
    assert policy.route({"tile_owner": 0}).host == "h0"
    # A table lookup, not a cycle: the same tag always lands the same host.
    assert policy.route({"tile_owner": 2}).host == "h2"


def test_tile_select_without_tags_raises():
    with pytest.raises(ConfigurationError, match="route"):
        tile_policy().select()


def test_tile_missing_or_bad_tag_raises():
    policy = tile_policy()
    with pytest.raises(ConfigurationError, match="tile_owner"):
        policy.route(None)
    with pytest.raises(ConfigurationError, match="tile_owner"):
        policy.route({"other": 1})
    with pytest.raises(ConfigurationError, match="tile_owner"):
        policy.route({"tile_owner": "1"})
    with pytest.raises(ConfigurationError, match="tile_owner"):
        policy.route({"tile_owner": True})  # bool is not an owner index


def test_tile_out_of_range_owner_raises():
    with pytest.raises(ConfigurationError, match="out of range"):
        tile_policy(2).route({"tile_owner": 2})
    with pytest.raises(ConfigurationError, match="out of range"):
        tile_policy(2).route({"tile_owner": -1})


def test_tile_describe():
    described = tile_policy().describe()
    assert described == {"name": "TileRouted", "needs_ack": False, "window": None}


def test_tile_not_in_factory_registry():
    # Tile routing follows from the consumer's tile map, never from a name.
    with pytest.raises(ConfigurationError, match="unknown policy"):
        make_policy_factory("TILE")


def test_capacity_policies_route_ignores_tags():
    # The default route() hook is select(): tags are irrelevant to RR.
    policy = RoundRobin()
    policy.bind(targets(("a", 1), ("b", 1)))
    assert policy.route({"tile_owner": 1}).host == "a"
    assert policy.route(None).host == "b"


# -- stream_policies (the per-stream resolver) --------------------------------


def tiled_graph():
    """src -> relay -> strips, with ``strips`` owning two tiles."""
    g = FilterGraph()
    g.add_filter("src", is_source=True)
    g.add_filter("relay")
    g.add_filter(
        "strips", phase_synchronised=True, tile_map=TileMap.grid(8, 8, 2, 1)
    )
    g.connect("src", "relay")
    g.connect("relay", "strips")
    return g


def test_stream_policies_tile_route_into_tile_mapped_consumers():
    policy_for = stream_policies(tiled_graph(), "DD")
    assert policy_for("relay->strips") is TileRouted
    assert isinstance(policy_for("src->relay")(), DemandDriven)


def test_stream_policies_session_factory_passes_through():
    session = make_policy_factory("DD", window=2)
    policy_for = stream_policies(tiled_graph(), session)
    assert policy_for("src->relay") is session
    assert policy_for("relay->strips") is TileRouted


def test_stream_policies_refuse_a_tile_routed_session():
    with pytest.raises(ConfigurationError, match="session policy"):
        stream_policies(tiled_graph(), TileRouted)
    with pytest.raises(ConfigurationError, match="unknown policy"):
        stream_policies(tiled_graph(), "TILE")
