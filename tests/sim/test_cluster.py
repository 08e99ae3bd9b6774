"""Unit tests for the cluster topology builder and the UMD testbed model."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.cluster import (
    FAST_ETHERNET,
    GIGABIT,
    Cluster,
    LinkSpec,
    homogeneous_cluster,
    umd_testbed,
)
from repro.sim.kernel import Environment


def test_build_simple_cluster_and_transfer():
    env = Environment()
    c = Cluster(env)
    c.add_switch("sw")
    c.add_host("h0", "sw", cores=1, nic=LinkSpec(100.0, 0.0))
    c.add_host("h1", "sw", cores=1, nic=LinkSpec(100.0, 0.0))
    c.finalize()
    done = []

    def sender(env):
        yield c.transfer("h0", "h1", 100)
        done.append(env.now)

    env.process(sender(env))
    env.run()
    assert done == [pytest.approx(1.0)]


def test_transfer_before_finalize_rejected():
    env = Environment()
    c = Cluster(env)
    c.add_switch("sw")
    c.add_host("h0", "sw", cores=1)
    c.add_host("h1", "sw", cores=1)
    with pytest.raises(ConfigurationError):
        c.transfer("h0", "h1", 1)


def test_mutation_after_finalize_rejected():
    env = Environment()
    c = Cluster(env)
    c.add_switch("sw")
    c.add_host("h0", "sw", cores=1)
    c.finalize()
    with pytest.raises(ConfigurationError):
        c.add_switch("sw2")


def test_duplicate_names_rejected():
    env = Environment()
    c = Cluster(env)
    c.add_switch("sw")
    with pytest.raises(ConfigurationError):
        c.add_switch("sw")
    c.add_host("h", "sw", cores=1)
    with pytest.raises(ConfigurationError):
        c.add_host("h", "sw", cores=1)


def test_unknown_switch_rejected():
    env = Environment()
    c = Cluster(env)
    with pytest.raises(ConfigurationError):
        c.add_host("h", "nope", cores=1)


def test_disconnected_switches_rejected():
    env = Environment()
    c = Cluster(env)
    c.add_switch("a")
    c.add_switch("b")
    c.add_host("h0", "a", cores=1)
    c.add_host("h1", "b", cores=1)
    with pytest.raises(ConfigurationError) as raised:
        c.finalize()
    assert str(raised.value) == "switches 'a' and 'b' are not connected"


def trunks_crossed(cluster, src, dst):
    links, _, _ = cluster.network.route(src, dst)
    return [ln.name for ln in links[1:-1]]


def test_diamond_routes_through_the_earliest_connected_trunk():
    env = Environment()
    c = Cluster(env)
    for sw in "abcd":
        c.add_switch(sw)
        c.add_host(f"h{sw}", sw, cores=1)
    spec = LinkSpec(100.0, 0.0)
    # Two two-hop paths a..d; the b side is connected first at both ends.
    for a, b in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        c.connect_switches(a, b, spec)
    c.finalize()
    assert trunks_crossed(c, "ha", "hd") == ["a->b", "b->d"]
    assert trunks_crossed(c, "hd", "ha") == ["d->b", "b->a"]
    assert trunks_crossed(c, "hb", "hc") == ["b->a", "a->c"]
    assert trunks_crossed(c, "ha", "hc") == ["a->c"]  # fewest hops first


def test_umd_testbed_routes_are_symmetric_and_cross_at_most_two_trunks():
    c = umd_testbed(Environment(), red_nodes=2, blue_nodes=2, rogue_nodes=2)
    for src in c.hosts:
        for dst in c.hosts:
            if src == dst:
                continue
            there = trunks_crossed(c, src, dst)
            back = trunks_crossed(c, dst, src)
            assert len(there) <= 2
            assert back == ["->".join(reversed(t.split("->"))) for t in reversed(there)]


def test_inter_switch_route_includes_trunk():
    env = Environment()
    c = Cluster(env)
    c.add_switch("a")
    c.add_switch("b")
    c.connect_switches("a", "b", LinkSpec(50.0, 0.0))
    c.add_host("h0", "a", cores=1, nic=LinkSpec(100.0, 0.0))
    c.add_host("h1", "b", cores=1, nic=LinkSpec(100.0, 0.0))
    c.finalize()
    done = []

    def sender(env):
        yield c.transfer("h0", "h1", 100)
        done.append(env.now)

    env.process(sender(env))
    env.run()
    assert done == [pytest.approx(2.0)]  # trunk at 50 B/s is the bottleneck


def test_umd_testbed_inventory():
    env = Environment()
    c = umd_testbed(env)
    assert len(c.hosts_in("red")) == 8
    assert len(c.hosts_in("blue")) == 8
    assert len(c.hosts_in("rogue")) == 8
    assert len(c.hosts_in("deathstar")) == 1

    rogue0 = c.host("rogue0")
    assert rogue0.cores == 1
    assert rogue0.speed == pytest.approx(1.0)
    assert len(rogue0.disks) == 2

    blue0 = c.host("blue0")
    assert blue0.cores == 2
    assert blue0.speed == pytest.approx(550 / 650)
    assert len(blue0.disks) == 2

    red0 = c.host("red0")
    assert red0.cores == 2
    assert len(red0.disks) == 1

    ds = c.host("deathstar0")
    assert ds.cores == 8


def test_umd_testbed_link_speeds():
    env = Environment()
    c = umd_testbed(env)
    # Rogue NICs are Fast Ethernet; Blue NICs are Gigabit.
    assert c.network.links["rogue0.tx"].capacity == pytest.approx(FAST_ETHERNET)
    assert c.network.links["blue0.tx"].capacity == pytest.approx(GIGABIT)
    # Deathstar reaches the core over Fast Ethernet.
    assert c.network.links["deathstar->core"].capacity == pytest.approx(FAST_ETHERNET)
    # Blue-to-rogue traffic transits the gigabit core.
    links, latency, overhead = c.network.route("blue0", "rogue0")
    names = [ln.name for ln in links]
    assert names[0] == "blue0.tx"
    assert names[-1] == "rogue0.rx"
    assert "blue->core" in names and "core->rogue" in names
    assert latency > 0
    assert overhead > 0


def test_umd_testbed_scaled_down():
    env = Environment()
    c = umd_testbed(env, red_nodes=2, blue_nodes=2, rogue_nodes=2, deathstar=False)
    assert len(c.hosts) == 6
    assert "deathstar0" not in c.hosts


def test_homogeneous_cluster():
    env = Environment()
    c = homogeneous_cluster(env, nodes=4, cores=1, speed=1.0)
    assert len(c.hosts) == 4
    assert all(h.cores == 1 for h in c.hosts.values())


def test_background_load_helper():
    env = Environment()
    c = homogeneous_cluster(env, nodes=2)
    c.set_background_load(4, hosts=["node0"])
    assert c.host("node0").cpu.background_jobs == 4
    assert c.host("node1").cpu.background_jobs == 0
    c.set_background_load(1)
    assert c.host("node1").cpu.background_jobs == 1


def test_host_compute_and_disk():
    env = Environment()
    c = homogeneous_cluster(env, nodes=1, disks=[(100.0, 0.0)])
    host = c.host("node0")
    done = []

    def work(env):
        yield host.compute(2.0)
        yield host.read_disk(100)
        done.append(env.now)

    env.process(work(env))
    env.run()
    assert done == [pytest.approx(3.0)]


def test_read_disk_bad_index():
    env = Environment()
    c = homogeneous_cluster(env, nodes=1, disks=[(100.0, 0.0)])
    with pytest.raises(ConfigurationError):
        c.host("node0").read_disk(10, disk_index=5)
