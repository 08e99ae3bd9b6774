"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed: a deterministic DES
kernel (:mod:`repro.sim.kernel`), processor-sharing CPUs, FIFO disks,
max-min fair network links, and a cluster topology builder that recreates
the UMD Red/Blue/Rogue/Deathstar installation.
"""

from repro.sim.cluster import (
    FAST_ETHERNET,
    GIGABIT,
    Cluster,
    LinkSpec,
    homogeneous_cluster,
    umd_testbed,
)
from repro.sim.cpu import ProcessorSharingCPU
from repro.sim.disk import Disk
from repro.sim.host import Host
from repro.sim.kernel import AllOf, Environment, Event, Process, Timeout
from repro.sim.network import Link, Network
from repro.sim.store import Store

__all__ = [
    "AllOf",
    "Cluster",
    "Disk",
    "Environment",
    "Event",
    "FAST_ETHERNET",
    "GIGABIT",
    "Host",
    "Link",
    "LinkSpec",
    "Network",
    "Process",
    "ProcessorSharingCPU",
    "Store",
    "Timeout",
    "homogeneous_cluster",
    "umd_testbed",
]
