"""The Active Data Repository baseline as a placement of the one filter graph.

ADR (paper references [12, 15], Section 4.2) is an SPMD framework for
generalized-reduction applications on homogeneous clusters.
:class:`ADRRuntime` builds it as a :class:`~repro.core.graph.FilterGraph`
and a placement, and runs them on the
:class:`~repro.engines.simulated.SimulatedEngine`.  On node ``i`` of ``n``:

- ``R<i>`` reads the node's static partition (:mod:`repro.adr.partition`),
  one buffer per chunk; the ``R<i>->ERa<i>`` queue is ADR's window of
  ``io_depth`` outstanding asynchronous reads;
- ``ERa<i>`` is Extract and z-buffer Raster fused, one copy per core.  The
  copies share the node's z-buffer; at end-of-work each ships its share,
  cut into one screen partition per node, partition ``j`` to owner
  ``M<j>`` on its own stream, the next node's owner first;
- ``M<j>`` merges its partition at end-of-work and sends it to ``G``, one
  copy on the first node, which extracts the image.

Every stream has one consumer copy set, so no writer policy can route
work away from a loaded node: the slowest node gates the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adr.partition import weighted_static_partition
from repro.core.buffer import DataBuffer
from repro.core.fuse import StageModel, Unit, fuse_models
from repro.core.graph import FilterGraph
from repro.core.placement import Placement
from repro.data.chunks import ChunkSpec
from repro.engines.simulated import SimulatedEngine
from repro.errors import ConfigurationError
from repro.sim.cluster import Cluster
from repro.viz.models import (
    BufferSizes,
    CostParams,
    ExtractModel,
    RasterZBModel,
    _emit_stream_buffers,
)
from repro.viz.profile import DatasetProfile
from repro.viz.raster import ZBUFFER_ENTRY_BYTES

__all__ = ["ADRResult", "ADRRuntime"]


@dataclass
class ADRResult:
    """Measurements from one ADR query execution.

    ``node_finish`` is when a node's ``ERa`` copies had all rendered and
    shipped their partitions, ``local_phase`` the latest of those, and
    ``merge_phase`` the rest of the makespan.
    """

    makespan: float
    local_phase: float
    merge_phase: float
    node_finish: dict[str, float] = field(default_factory=dict)
    chunks_per_node: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0


@dataclass
class PartitionReadModel(StageModel):
    """``R<i>``: one buffer per chunk of the node's partition, round-robin
    over its disks.  The reads are asynchronous: they take disk time and
    no CPU, and the worker pays for the bytes (:class:`ChunkBytesModel`)."""

    profile: DatasetProfile
    timestep: int
    chunks: list[ChunkSpec]
    disks: int
    source = True

    def units(self, ctx):
        """One unit per chunk (see StageModel.units)."""
        for i, chunk in enumerate(self.chunks):
            yield chunk.nbytes, i % self.disks, i >= self.disks, {
                "bytes": chunk.nbytes,
                "voxels": chunk.points,
                "triangles": self.profile.triangles(self.timestep, chunk.chunk_id),
            }

    def step(self, unit: Unit, cost: float):
        """The chunk flows on whole (see StageModel.step)."""
        return cost, unit

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """The chunk as one buffer (see StageModel.packets)."""
        return [DataBuffer(unit["bytes"], tags=dict(unit))]


@dataclass
class ChunkBytesModel(StageModel):
    """The first part of ``ERa<i>``: the CPU a read chunk's bytes cost."""

    costs: CostParams

    def step(self, unit: Unit, cost: float):
        """Price the chunk's bytes; it flows on (see StageModel.step)."""
        return cost + unit["bytes"] * self.costs.read_per_byte, unit


class NodeZBufferModel(RasterZBModel):
    """Ra on node ``node`` of ``nodes``: one copy's 1/``cores`` share of the
    node's z-buffer, shipped as one slice per screen partition."""

    def __init__(self, costs, buffers, width, height, node, nodes, cores):
        super().__init__(costs, buffers, width, height)
        self.node, self.nodes, self.cores = node, nodes, cores

    def _zb_bytes(self) -> int:
        return super()._zb_bytes() // self.cores

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Partition ``j``'s slabs on stream ``ERa<node>->M<j>``, in turn
        from the next node's partition round to this node's own."""
        out: list[DataBuffer] = []
        for k in range(1, self.nodes + 1):
            owner = (self.node + k) % self.nodes
            for buffer in _emit_stream_buffers(
                self._zb_bytes() // self.nodes, self.buffers.zbuffer_slab
            ):
                buffer.tags["stream"] = f"ERa{self.node}->M{owner}"
                out.append(buffer)
        return out


@dataclass
class EndOfWorkModel(StageModel):
    """``M<j>`` and ``G``: receive for free; at end-of-work price every
    z-buffer entry received at ``per_entry`` and send ``nbytes`` on in
    ``slab``-sized buffers."""

    per_entry: float
    nbytes: int
    slab: int
    received: int = 0

    def unit_of(self, buffer: DataBuffer) -> Unit:
        """A slab's unit: its bytes (see StageModel.unit_of)."""
        return {"bytes": buffer.nbytes}

    def step(self, unit: Unit, cost: float):
        """Receiving costs nothing; the merge is at end-of-work."""
        self.received += unit["bytes"]
        return cost, None

    def flush_step(self, cost: float):
        """The end-of-work merge (or image extraction); the merged
        partition flows on."""
        cost += self.received // ZBUFFER_ENTRY_BYTES * self.per_entry
        return cost, {"bytes": self.nbytes}

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """The merged partition in slabs (see StageModel.packets)."""
        return _emit_stream_buffers(unit["bytes"], self.slab)


class ADRRuntime:
    """Run one isosurface query (one ``timestep``) ADR-style.

    The dataset of ``profile`` is partitioned over exactly ``nodes`` of
    the (finalized, possibly loaded) ``cluster`` — by
    ``partition_weights`` if given (see
    :func:`repro.adr.partition.weighted_static_partition`) — and rendered
    at ``width`` x ``height`` with the DataCutter models' ``costs``,
    keeping ``io_depth`` asynchronous disk reads outstanding per node.
    """

    def __init__(
        self,
        cluster: Cluster,
        nodes: list[str],
        profile: DatasetProfile,
        width: int = 2048,
        height: int = 2048,
        costs: CostParams | None = None,
        timestep: int = 0,
        io_depth: int = 4,
        partition_weights: list[float] | None = None,
    ):
        if not nodes:
            raise ConfigurationError("ADR needs at least one node")
        for node in nodes:
            if not cluster.host(node).disks:
                raise ConfigurationError(f"ADR node {node!r} has no disks")
        if io_depth < 1:
            raise ConfigurationError(f"io_depth must be >= 1, got {io_depth}")
        if not 0 <= timestep < profile.timesteps:
            raise ConfigurationError(
                f"timestep {timestep} outside [0, {profile.timesteps})"
            )
        assignment = weighted_static_partition(profile.chunks, nodes, partition_weights)
        self.cluster, self.nodes, self.io_depth = cluster, list(nodes), io_depth
        costs = costs or CostParams()
        buffers = BufferSizes()
        n, slab = len(nodes), buffers.zbuffer_slab
        part = width * height * ZBUFFER_ENTRY_BYTES // n
        merge = costs.merge_zb_per_entry
        self.graph, self.placement = graph, placement = FilterGraph(), Placement()
        for i, node in enumerate(nodes):
            host = cluster.host(node)
            graph.add_filter(
                f"R{i}", is_source=True, effects="io",
                sim_factory=lambda c=assignment[node], d=len(host.disks): (
                    PartitionReadModel(profile, timestep, c, d)
                ),
            )
            graph.add_filter(
                f"ERa{i}", effects="stateful",
                sim_factory=lambda i=i, cores=host.cores: fuse_models(
                    ChunkBytesModel(costs),
                    ExtractModel(costs, buffers),
                    NodeZBufferModel(costs, buffers, width, height, i, n, cores),
                ),
            )
            graph.connect(f"R{i}", f"ERa{i}")
            placement.place(f"R{i}", [node]).place(f"ERa{i}", [(node, host.cores)])
        for j, node in enumerate(nodes):
            graph.add_filter(
                f"M{j}", effects="stateful",
                sim_factory=lambda: EndOfWorkModel(merge, part, slab),
            )
            for i in range(n):
                graph.connect(f"ERa{i}", f"M{j}")
            placement.place(f"M{j}", [node])
        # Extracting the image costs a quarter of a merge per entry.
        graph.add_filter(
            "G", effects="stateful",
            sim_factory=lambda: EndOfWorkModel(merge * 0.25, 0, slab),
        )
        for j in range(n):
            graph.connect(f"M{j}", "G")
        placement.place("G", [nodes[0]])

    def engine(self) -> SimulatedEngine:
        """The engine that runs the query: RR writers (every stream has one
        consumer copy set), queues ``io_depth`` deep."""
        return SimulatedEngine(
            self.cluster, self.graph, self.placement, policy="RR",
            queue_capacity=self.io_depth,
        )

    def run(self) -> ADRResult:
        """Execute one query; returns phase timings."""
        metrics = self.engine().run()
        reads = [metrics.streams[f"R{i}->ERa{i}"] for i in range(len(self.nodes))]
        finish = {
            node: max(c.finished_at for c in metrics.copies if c.filter_name == f"ERa{i}")
            for i, node in enumerate(self.nodes)
        }
        local = max(finish.values())
        return ADRResult(
            metrics.makespan, local, metrics.makespan - local, finish,
            {node: s.buffers for node, s in zip(self.nodes, reads)},
            sum(s.bytes for s in reads),
        )
