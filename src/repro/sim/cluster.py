"""Cluster topology builder and the UMD testbed replica.

A :class:`Cluster` is the whole simulated installation: hosts attached to
switches by full-duplex access links, switches joined by trunks, and a
routing table computed over the switch graph.  :func:`umd_testbed` rebuilds
the heterogeneous collection from the paper (Section 4): the Red, Blue,
Rogue and Deathstar clusters with their CPU generations, disk subsystems and
Gigabit/Fast-Ethernet interconnects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.host import Host
from repro.sim.kernel import Environment, Event
from repro.sim.network import Network

__all__ = ["LinkSpec", "Cluster", "umd_testbed", "homogeneous_cluster"]

# Effective (application-level) bandwidths, bytes/second.
GIGABIT = 100e6
FAST_ETHERNET = 11.5e6

# Per-hop one-way latencies and fixed per-message costs, seconds.
GIGABIT_LATENCY = 60e-6
FAST_ETHERNET_LATENCY = 120e-6
GIGABIT_MSG_OVERHEAD = 25e-6
FAST_ETHERNET_MSG_OVERHEAD = 90e-6

# Disk profiles: (bandwidth bytes/s, seek seconds).
SCSI_DISK = (35e6, 4e-3)
IDE_DISK = (30e6, 6e-3)

# Per-core relative speeds (reference = Rogue's PIII 650 MHz).
PII_450 = 450.0 / 650.0
PIII_550 = 550.0 / 650.0
PIII_650 = 1.0


@dataclass
class LinkSpec:
    """Bandwidth/latency/overhead bundle for one hop."""

    bandwidth: float
    latency: float
    message_overhead: float = 0.0


class Cluster:
    """The simulated installation: hosts, switches, and the network.

    Build by calling :meth:`add_switch`, :meth:`add_host` and
    :meth:`connect_switches`, then :meth:`finalize` to compute routes.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.network = Network(env)
        self.hosts: dict[str, Host] = {}
        #: switch -> {neighbouring switch: trunk}, both in connection order.
        self._trunks: dict[str, dict[str, LinkSpec]] = {}
        self._host_access: dict[str, LinkSpec] = {}
        self._host_switch: dict[str, str] = {}
        self._finalized = False

    # -- construction --------------------------------------------------------
    def add_switch(self, name: str) -> None:
        """Register a switch (one per physical cluster's interconnect)."""
        self._ensure_mutable()
        if name in self._trunks:
            raise ConfigurationError(f"duplicate switch {name!r}")
        self._trunks[name] = {}

    def add_host(
        self,
        name: str,
        switch: str,
        cores: int,
        speed: float = 1.0,
        nic: LinkSpec | None = None,
        disks: list[tuple[float, float]] | None = None,
        memory: int = 1 << 30,
        cluster_name: str | None = None,
    ) -> Host:
        """Create a host attached to ``switch`` through a NIC access link."""
        self._ensure_mutable()
        if name in self.hosts:
            raise ConfigurationError(f"duplicate host {name!r}")
        if switch not in self._trunks:
            raise ConfigurationError(f"unknown switch {switch!r}")
        nic = nic or LinkSpec(GIGABIT, GIGABIT_LATENCY, GIGABIT_MSG_OVERHEAD)
        host = Host(
            self.env,
            name,
            cores=cores,
            speed=speed,
            disks=disks,
            memory=memory,
            cluster_name=cluster_name or switch,
        )
        self.hosts[name] = host
        self._host_switch[name] = switch
        self._host_access[name] = nic
        # Full-duplex NIC: separate tx and rx links.
        self.network.add_link(f"{name}.tx", nic.bandwidth)
        self.network.add_link(f"{name}.rx", nic.bandwidth)
        return host

    def connect_switches(self, a: str, b: str, spec: LinkSpec) -> None:
        """Join two switches with a full-duplex trunk."""
        self._ensure_mutable()
        for sw in (a, b):
            if sw not in self._trunks:
                raise ConfigurationError(f"unknown switch {sw!r}")
        self.network.add_link(f"{a}->{b}", spec.bandwidth)
        self.network.add_link(f"{b}->{a}", spec.bandwidth)
        self._trunks[a][b] = self._trunks[b][a] = spec

    def finalize(self) -> "Cluster":
        """Compute the (host, host) routing table.  Idempotent."""
        if self._finalized:
            return self
        names = list(self.hosts)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                self._install_route(src, dst)
        self._finalized = True
        return self

    def _install_route(self, src: str, dst: str) -> None:
        sw_src = self._host_switch[src]
        sw_dst = self._host_switch[dst]
        nic_src = self._host_access[src]
        nic_dst = self._host_access[dst]
        links = [self.network.links[f"{src}.tx"]]
        latency = nic_src.latency + nic_dst.latency
        overhead = nic_src.message_overhead + nic_dst.message_overhead
        if sw_src != sw_dst:
            path = self._switch_path(sw_src, sw_dst)
            for a, b in zip(path, path[1:]):
                spec = self._trunks[a][b]
                links.append(self.network.links[f"{a}->{b}"])
                latency += spec.latency
                overhead += spec.message_overhead
        links.append(self.network.links[f"{dst}.rx"])
        self.network.set_route(src, dst, links, latency, overhead)

    def _switch_path(self, src: str, dst: str) -> list[str]:
        """The fewest-hop switch path, found breadth-first from ``src``.

        Among equally short paths the one through the earliest-connected
        trunk wins: a switch's trunks are tried in :meth:`connect_switches`
        order and the first to reach a switch keeps it.
        """
        parent = {src: src}
        reached = [src]
        for sw in reached:  # grows as switches are reached
            for peer in self._trunks[sw]:
                if peer not in parent:
                    parent[peer] = sw
                    reached.append(peer)
        if dst not in parent:
            raise ConfigurationError(f"switches {src!r} and {dst!r} are not connected")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        return path[::-1]

    def _ensure_mutable(self) -> None:
        if self._finalized:
            raise ConfigurationError("cluster already finalized")

    # -- operation ------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Send ``nbytes`` from host ``src`` to host ``dst``."""
        if not self._finalized:
            raise ConfigurationError("call finalize() before transfer()")
        return self.network.transfer(src, dst, nbytes)

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise ConfigurationError(f"unknown host {name!r}") from None

    def hosts_in(self, cluster_name: str) -> list[Host]:
        """All hosts belonging to the named sub-cluster, in creation order."""
        return [h for h in self.hosts.values() if h.cluster_name == cluster_name]

    def set_background_load(self, jobs: int, hosts: list[str] | None = None) -> None:
        """Apply ``jobs`` background jobs to ``hosts`` (default: every host)."""
        for name in hosts if hosts is not None else list(self.hosts):
            self.host(name).set_background_load(jobs)


def umd_testbed(
    env: Environment,
    red_nodes: int = 8,
    blue_nodes: int = 8,
    rogue_nodes: int = 8,
    deathstar: bool = True,
) -> Cluster:
    """Rebuild the University of Maryland testbed from the paper.

    - **Red**: ``red_nodes`` 2-way PII-450 nodes, 256 MB, 1 SCSI disk, GigE.
    - **Deathstar**: one 8-way PIII-550 node, 4 GB, Fast Ethernet uplink.
    - **Blue**: ``blue_nodes`` 2-way PIII-550 nodes, 1 GB, 2 SCSI disks, GigE.
    - **Rogue**: ``rogue_nodes`` 1-way PIII-650 nodes, 128 MB, 2 IDE disks,
      switched Fast Ethernet inside the cluster, GigE uplink to the core.
    """
    cluster = Cluster(env)
    gige = LinkSpec(GIGABIT, GIGABIT_LATENCY, GIGABIT_MSG_OVERHEAD)
    faste = LinkSpec(FAST_ETHERNET, FAST_ETHERNET_LATENCY, FAST_ETHERNET_MSG_OVERHEAD)

    cluster.add_switch("core")
    cluster.add_switch("red")
    cluster.add_switch("blue")
    cluster.add_switch("rogue")
    cluster.connect_switches("red", "core", gige)
    cluster.connect_switches("blue", "core", gige)
    cluster.connect_switches("rogue", "core", gige)
    if deathstar:
        cluster.add_switch("deathstar")
        cluster.connect_switches("deathstar", "core", faste)

    for i in range(red_nodes):
        cluster.add_host(
            f"red{i}", "red", cores=2, speed=PII_450, nic=gige,
            disks=[SCSI_DISK], memory=256 << 20, cluster_name="red",
        )
    for i in range(blue_nodes):
        cluster.add_host(
            f"blue{i}", "blue", cores=2, speed=PIII_550, nic=gige,
            disks=[SCSI_DISK, SCSI_DISK], memory=1 << 30, cluster_name="blue",
        )
    for i in range(rogue_nodes):
        cluster.add_host(
            f"rogue{i}", "rogue", cores=1, speed=PIII_650, nic=faste,
            disks=[IDE_DISK, IDE_DISK], memory=128 << 20, cluster_name="rogue",
        )
    if deathstar:
        cluster.add_host(
            "deathstar0", "deathstar", cores=8, speed=PIII_550, nic=faste,
            disks=[SCSI_DISK], memory=4 << 30, cluster_name="deathstar",
        )
    return cluster.finalize()


def homogeneous_cluster(
    env: Environment,
    nodes: int,
    cores: int = 1,
    speed: float = 1.0,
    nic: LinkSpec | None = None,
    disks: list[tuple[float, float]] | None = None,
    name: str = "node",
) -> Cluster:
    """A single-switch cluster of identical nodes (ADR's natural habitat)."""
    cluster = Cluster(env)
    cluster.add_switch("sw")
    nic = nic or LinkSpec(FAST_ETHERNET, FAST_ETHERNET_LATENCY, FAST_ETHERNET_MSG_OVERHEAD)
    for i in range(nodes):
        cluster.add_host(
            f"{name}{i}", "sw", cores=cores, speed=speed, nic=nic,
            disks=disks if disks is not None else [IDE_DISK, IDE_DISK],
            cluster_name=name,
        )
    return cluster.finalize()
