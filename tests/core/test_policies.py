"""Unit tests for RR / WRR / DD writer policies."""

import pytest

from repro.core.policies import (
    DemandDriven,
    RoundRobin,
    Target,
    WeightedRoundRobin,
    make_policy_factory,
)
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


def test_factory_passes_a_factory_through():
    # An engine's policy argument may be a name or a factory; a factory
    # is the session policy as it is, and an unknown name is refused.
    session = make_policy_factory("DD", window=2)
    assert make_policy_factory(session) is session
    with pytest.raises(ConfigurationError, match="unknown policy"):
        make_policy_factory("TILE")
