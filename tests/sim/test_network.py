"""Unit tests for the max-min fair flow network."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.kernel import Environment
from repro.sim.network import Network


def simple_net(env, capacity=100.0, latency=0.0, overhead=0.0):
    """One link A->B with given capacity."""
    net = Network(env)
    link = net.add_link("ab", capacity)
    net.set_route("A", "B", [link], latency, overhead)
    return net


def test_single_transfer_time():
    env = Environment()
    net = simple_net(env, capacity=100.0, latency=0.5)
    done = []

    def sender(env):
        yield net.transfer("A", "B", 200)
        done.append(env.now)

    env.process(sender(env))
    env.run()
    assert done == [pytest.approx(2.5)]  # 200/100 + 0.5 latency


def test_two_flows_share_bandwidth():
    env = Environment()
    net = simple_net(env, capacity=100.0)
    done = {}

    def sender(env, tag):
        yield net.transfer("A", "B", 100)
        done[tag] = env.now

    env.process(sender(env, "x"))
    env.process(sender(env, "y"))
    env.run()
    # Both at 50 B/s -> both finish at t=2.
    assert done["x"] == pytest.approx(2.0)
    assert done["y"] == pytest.approx(2.0)


def test_flow_completion_frees_bandwidth():
    env = Environment()
    net = simple_net(env, capacity=100.0)
    done = {}

    def sender(env, tag, nbytes):
        yield net.transfer("A", "B", nbytes)
        done[tag] = env.now

    env.process(sender(env, "small", 50))
    env.process(sender(env, "big", 150))
    env.run()
    # Shared at 50/s until small drains at t=1; big then has 100 left at
    # 100/s -> finishes at t=2.
    assert done["small"] == pytest.approx(1.0)
    assert done["big"] == pytest.approx(2.0)


def test_maxmin_bottleneck_and_spare_capacity():
    # Flow 1 traverses L1(100) only; flows 2,3 traverse L1 and L2(60).
    # Max-min: L2 gives 30 each to flows 2,3; flow 1 then gets 40 on L1.
    env = Environment()
    net = Network(env)
    l1 = net.add_link("l1", 100.0)
    l2 = net.add_link("l2", 60.0)
    net.set_route("A", "B", [l1], 0.0)
    net.set_route("A", "C", [l1, l2], 0.0)
    rates = {}

    def probe(env):
        # Start three long flows, then inspect allocation via finish times.
        e1 = net.transfer("A", "B", 400)
        e2 = net.transfer("A", "C", 300)
        e3 = net.transfer("A", "C", 300)
        t0 = env.now
        yield e2
        rates["f2_done"] = env.now - t0
        yield e3
        yield e1
        rates["f1_done"] = env.now - t0

    env.process(probe(env))
    env.run()
    # Flows 2,3 at 30 B/s -> 300 bytes in 10 s.
    assert rates["f2_done"] == pytest.approx(10.0)
    # Flow 1: 40 B/s for 10 s (400 bytes) -> done at t=10 too.
    assert rates["f1_done"] == pytest.approx(10.0)


def test_local_transfer_bypasses_links():
    env = Environment()
    net = Network(env, local_bandwidth=100.0, local_latency=0.5)
    done = []

    def sender(env):
        yield net.transfer("A", "A", 100)
        done.append(env.now)

    env.process(sender(env))
    env.run()
    assert done == [pytest.approx(1.5)]


def test_zero_byte_message_costs_latency_and_overhead():
    env = Environment()
    net = simple_net(env, capacity=100.0, latency=0.2, overhead=0.05)
    done = []

    def sender(env):
        yield net.transfer("A", "B", 0)
        done.append(env.now)

    env.process(sender(env))
    env.run()
    assert done == [pytest.approx(0.25)]


def test_missing_route_raises():
    env = Environment()
    net = Network(env)
    with pytest.raises(ConfigurationError):
        net.transfer("A", "B", 10)


def test_duplicate_link_rejected():
    env = Environment()
    net = Network(env)
    net.add_link("l", 10)
    with pytest.raises(ConfigurationError):
        net.add_link("l", 10)


def test_statistics():
    env = Environment()
    net = simple_net(env, capacity=100.0)

    def sender(env):
        yield net.transfer("A", "B", 100)

    env.process(sender(env))
    env.run()
    assert net.transfers_started == 1
    assert net.transfers_completed == 1
    assert net.bytes_delivered == pytest.approx(100)
    assert net.links["ab"].bytes_carried == 100
    assert net.links["ab"].messages == 1


def test_staggered_arrivals_rate_adjustment():
    env = Environment()
    net = simple_net(env, capacity=100.0)
    done = {}

    def sender(env, tag, start, nbytes):
        yield env.timeout(start)
        yield net.transfer("A", "B", nbytes)
        done[tag] = env.now

    env.process(sender(env, "a", 0.0, 200))
    env.process(sender(env, "b", 1.0, 100))
    env.run()
    # a: 100 bytes done by t=1; then shares (50/s each). b drains 100 in 2s
    # (t=3); a's last 100-? ... a has 100 left at t=1, gets 50/s until t=3
    # (100 done) -> finishes exactly at t=3 as well.
    assert done["b"] == pytest.approx(3.0)
    assert done["a"] == pytest.approx(3.0)


def test_a_route_that_repeats_a_link_is_refused():
    """A flow counts once among a link's members, so it may cross the
    link once: a route naming it twice is a configuration error."""
    env = Environment()
    net = Network(env)
    ab = net.add_link("ab", 100.0)
    bc = net.add_link("bc", 100.0)
    with pytest.raises(ConfigurationError, match="crosses a link twice"):
        net.set_route("A", "C", [ab, bc, ab], 0.0)
    with pytest.raises(ConfigurationError, match="no route"):
        net.route("A", "C")
