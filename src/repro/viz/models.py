"""Simulated cost/behaviour models of the isosurface filters.

Each model mirrors one real filter in :mod:`repro.viz.filters`: it prices
work in reference core-seconds and emits buffers with the same
counts/sizes the real filter would.  R, E and Ra are
:class:`~repro.core.fuse.StageModel` parts — written over *logical units*
(a chunk's voxels, a chunk's triangles, a batch of pixel entries), so the
same definition prices the stage alone and inside a fused RE / ERa / RERa
stage built by :func:`~repro.core.fuse.fuse_models`.  The constants in
:class:`CostParams` are calibrated so that, on a reference (Rogue) node
with the 1.5 GB dataset and a 2048x2048 image, the per-filter totals land
near the paper's Table 2 (R 0.7 s, E 1.7 s, Ra ~9-12 s, M ~0.7-0.9 s).

Buffer-flow fidelity (Table 1 semantics):

- Read emits each chunk's voxels in fixed-size buffers;
- Extract emits its output buffer *when full or when the current input
  unit is fully processed* — so triangle buffers are mostly partial;
- z-buffer Raster emits nothing until end-of-work, then the whole
  ``W*H*8``-byte buffer in fixed slabs;
- active-pixel Raster emits WPA buffers continuously (12 bytes/entry);
- Merge consumes either stream and exposes summary statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.configurations import check_algorithm
from repro.core.buffer import DataBuffer, chunk_bytes
from repro.core.filter import FilterContext
from repro.core.fuse import StageModel, Unit
from repro.data.storage import StorageMap
from repro.errors import ConfigurationError
from repro.viz.active_pixel import WPA_ENTRY_BYTES
from repro.viz.filters import TRIANGLE_BYTES
from repro.viz.profile import DatasetProfile
from repro.viz.raster import ZBUFFER_ENTRY_BYTES

__all__ = [
    "CostParams",
    "BufferSizes",
    "ReadSourceModel",
    "ExtractModel",
    "RasterZBModel",
    "RasterAPModel",
    "raster_model",
    "MergeModel",
]


@dataclass(frozen=True)
class CostParams:
    """Calibrated per-unit CPU costs (reference core-seconds)."""

    read_per_byte: float = 2.0e-9
    extract_per_voxel: float = 1.6e-7
    extract_per_triangle: float = 1.0e-6
    raster_per_triangle: float = 2.0e-5
    raster_per_fragment: float = 1.6e-6
    ap_per_entry: float = 9.0e-7
    zb_send_per_byte: float = 5.0e-9
    merge_zb_per_entry: float = 2.1e-7
    merge_ap_per_entry: float = 3.0e-7
    #: average fragments per triangle when rendered at 2048 x 2048
    fragments_per_triangle_2048: float = 10.0
    #: winning-pixel entries per fragment in the active-pixel scheme
    ap_entry_ratio: float = 0.9

    def fragments_per_triangle(self, width: int, height: int) -> float:
        """Projected fragments per triangle at the given image size."""
        return self.fragments_per_triangle_2048 * (width * height) / float(2048 * 2048)


@dataclass(frozen=True)
class BufferSizes:
    """Fixed stream-buffer sizes (bytes), per the paper's runtime choices."""

    read: int = 88 * 1024
    triangles: int = 64 * 1024
    zbuffer_slab: int = 2 * 1024 * 1024
    wpa: int = 64 * 1024

    def __post_init__(self) -> None:
        for field_name in ("read", "triangles", "zbuffer_slab", "wpa"):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"buffer size {field_name} must be >= 1")


def _split_counts(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` items proportionally to ``weights``.

    Largest remainder: every share is the floor of its exact quota, and
    the items left over go to the largest fractional parts (earlier
    weights first on a tie) — so the shares are non-negative and sum to
    ``total`` whatever the ratio of items to weights.
    """
    wsum = sum(weights)
    if wsum == 0:
        out = [0] * len(weights)
        if out:
            out[-1] = total
        return out
    quotas = [total * w / wsum for w in weights]
    out = [int(q) for q in quotas]
    left = total - sum(out)
    if left:
        by_fraction = sorted(range(len(out)), key=lambda i: (out[i] - quotas[i], i))
        for i in by_fraction[:left]:
            out[i] += 1
    return out


def _emit_stream_buffers(total_bytes: int, cap: int, **unit_tags) -> list[DataBuffer]:
    """Fixed-size buffers for ``total_bytes`` with proportional unit tags.

    ``unit_tags`` maps tag name -> total units (e.g. triangles); each output
    buffer carries its proportional share.
    """
    sizes = chunk_bytes(total_bytes, cap)
    if not sizes:
        return []
    shares = {
        key: _split_counts(total, [s for s in sizes])
        for key, total in unit_tags.items()
    }
    return [
        DataBuffer(size, tags={key: shares[key][i] for key in shares})
        for i, size in enumerate(sizes)
    ]


class ReadSourceModel(StageModel):
    """R: read this copy's declustered files, emit voxel buffers.

    The logical unit is one chunk.  Alone, R packs voxel buffers *across
    chunk boundaries* within a file ("a buffer contains a subset of voxels
    in the dataset"): voxel data accumulates until the fixed buffer size
    is reached, with a partial buffer flushed at each file boundary.  This
    reproduces Table 1's buffer count — at full scale, ~39 MB of voxels in
    88 KiB buffers is the paper's ~443 R->E buffers — rather than one
    buffer per (small) chunk.  Fused, the chunk goes to the next part
    whole and nothing is packed.
    """

    source = True

    def __init__(
        self,
        profile: DatasetProfile,
        storage: StorageMap,
        timestep: int,
        costs: CostParams,
        buffers: BufferSizes,
    ):
        self.profile = profile
        self.storage = storage
        self.timestep = timestep
        self.costs = costs
        self.buffers = buffers
        self._pend_bytes = self._pend_voxels = self._pend_tris = 0

    def units(self, ctx: FilterContext):
        """One unit per chunk of this copy's files (see StageModel.units)."""
        files = self.storage.files_on(ctx.host)
        for data_file, disk in files[ctx.copy_index :: ctx.copies_on_host]:
            last = len(data_file.chunks) - 1
            for i, chunk in enumerate(data_file.chunks):
                yield chunk.nbytes, disk, i > 0, {
                    "bytes": chunk.nbytes,
                    "voxels": chunk.points,
                    "triangles": self.profile.triangles(
                        self.timestep, chunk.chunk_id
                    ),
                    "file_end": i == last,
                }

    def step(self, unit: Unit, cost: float):
        """Price one chunk; it flows on whole (see StageModel.step)."""
        return cost + unit["bytes"] * self.costs.read_per_byte, unit

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Voxel buffers completed by this chunk (see StageModel.packets)."""
        cap = self.buffers.read
        self._pend_bytes += unit["bytes"]
        self._pend_voxels += unit["voxels"]
        self._pend_tris += unit["triangles"]
        outs: list[DataBuffer] = []
        while self._pend_bytes >= cap:
            vox = int(round(self._pend_voxels * cap / self._pend_bytes))
            tri = int(round(self._pend_tris * cap / self._pend_bytes))
            outs.append(DataBuffer(cap, tags={"voxels": vox, "triangles": tri}))
            self._pend_bytes -= cap
            self._pend_voxels -= vox
            self._pend_tris -= tri
        if unit["file_end"]:
            if self._pend_bytes > 0:
                # Partial buffer at the file boundary.
                outs.append(
                    DataBuffer(
                        self._pend_bytes,
                        tags={
                            "voxels": self._pend_voxels,
                            "triangles": self._pend_tris,
                        },
                    )
                )
            self._pend_bytes = self._pend_voxels = self._pend_tris = 0
        return outs


class ExtractModel(StageModel):
    """E: marching cubes cost; emits triangle buffers per input unit."""

    def __init__(self, costs: CostParams, buffers: BufferSizes):
        self.costs = costs
        self.buffers = buffers
        # One input voxel buffer plus one output triangle buffer.
        self.input_buffer_bytes = buffers.read
        self.output_buffer_bytes = buffers.triangles

    def step(self, unit: Unit, cost: float):
        """Price one voxel unit; emit its triangles (see StageModel.step)."""
        tris = unit.get("triangles", 0)
        cost += unit.get("voxels", 0) * self.costs.extract_per_voxel
        cost += tris * self.costs.extract_per_triangle
        return cost, {"triangles": tris}

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Triangle buffers of one emitted unit (see StageModel.packets)."""
        tris = unit["triangles"]
        return _emit_stream_buffers(
            tris * TRIANGLE_BYTES, self.buffers.triangles, triangles=tris
        )


class _RasterModel(StageModel):
    """Shared raster arithmetic.

    Placed as a sink (the image-partitioned pipelines, no Merge) a raster
    emits nothing and reports the triangles it drew as its ``result``.
    """

    def __init__(
        self,
        costs: CostParams,
        buffers: BufferSizes,
        width: int,
        height: int,
    ):
        self.costs = costs
        self.buffers = buffers
        self.width = width
        self.height = height
        self.frag_per_tri = costs.fragments_per_triangle(width, height)
        self.input_buffer_bytes = buffers.triangles
        self.triangles = 0

    def triangle_cost(self, tris: int) -> float:
        """Transform + fill cost of ``tris`` triangles."""
        frags = tris * self.frag_per_tri
        return tris * self.costs.raster_per_triangle + frags * self.costs.raster_per_fragment

    def ap_entries(self, tris: int) -> int:
        """Winning-pixel entries generated by ``tris`` triangles."""
        return int(math.ceil(tris * self.frag_per_tri * self.costs.ap_entry_ratio))

    def result(self):
        """Final value exposed by a raster placed as a sink."""
        return {"triangles": self.triangles}


class RasterZBModel(_RasterModel):
    """Ra (z-buffer): accumulate; flush the whole buffer in fixed slabs."""

    def step(self, unit: Unit, cost: float):
        """Price one triangle unit; nothing is emitted before end-of-work."""
        tris = unit.get("triangles", 0)
        self.triangles += tris
        return cost + self.triangle_cost(tris), None

    def flush_step(self, cost: float):
        """Serialise the whole z-buffer (see StageModel.flush_step)."""
        cost += self._zb_bytes() * self.costs.zb_send_per_byte
        return cost, {"entries": self.width * self.height}

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Dense slabs of the whole viewport (see StageModel.packets)."""
        return _emit_stream_buffers(
            self._zb_bytes(), self.buffers.zbuffer_slab, entries=unit["entries"]
        )

    def accumulator_bytes(self) -> int:
        """Resident state of one copy (see StageModel.accumulator_bytes)."""
        # The full z-buffer accumulator dominates (paper Section 3.1.2).
        return self._zb_bytes()

    def _zb_bytes(self) -> int:
        return self.width * self.height * ZBUFFER_ENTRY_BYTES


class RasterAPModel(_RasterModel):
    """Ra (active pixel): stream WPA buffers as inputs are processed."""

    def step(self, unit: Unit, cost: float):
        """Price one triangle unit; emit its winning-pixel entries."""
        tris = unit.get("triangles", 0)
        self.triangles += tris
        entries = self.ap_entries(tris)
        cost += self.triangle_cost(tris)
        cost += entries * self.costs.ap_per_entry
        return cost, {"entries": entries}

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """WPA buffers of one emitted unit (see StageModel.packets)."""
        entries = unit["entries"]
        return _emit_stream_buffers(
            entries * WPA_ENTRY_BYTES, self.buffers.wpa, entries=entries
        )

    def accumulator_bytes(self) -> int:
        """Resident state of one copy (see StageModel.accumulator_bytes)."""
        # One open WPA buffer plus a scanline index (paper: MSA of the
        # screen's x-resolution) — the "better use of system memory".
        return self.buffers.wpa + self.width * 4


def raster_model(
    algorithm: str,
    costs: CostParams,
    buffers: BufferSizes,
    width: int,
    height: int,
) -> _RasterModel:
    """The Ra part for ``algorithm`` (z-buffer or active pixel)."""
    check_algorithm(algorithm)
    cls = RasterZBModel if algorithm == "zbuffer" else RasterAPModel
    return cls(costs, buffers, width, height)


class MergeModel(StageModel):
    """M: depth-composite incoming pixel buffers; exposes run statistics.

    A buffer's unit is its byte count: the entries it carries are priced
    as ``nbytes`` / entry size, a float.  ``width``/``height`` size the
    merge-side accumulator for memory accounting (both algorithms keep a
    full-screen buffer at the merge).
    """

    def __init__(self, costs: CostParams, algorithm: str, width: int = 0, height: int = 0):
        check_algorithm(algorithm)
        self.costs = costs
        self.algorithm = algorithm
        self.width = width
        self.height = height
        self.buffers_in = 0
        self.entries_in = 0
        self.bytes_in = 0

    def unit_of(self, buffer: DataBuffer) -> Unit:
        """A pixel buffer's unit: its bytes (see StageModel.unit_of)."""
        return {"bytes": buffer.nbytes}

    def step(self, unit: Unit, cost: float):
        """Composite one pixel buffer; nothing flows on."""
        if self.algorithm == "zbuffer":
            entries = unit["bytes"] / ZBUFFER_ENTRY_BYTES
            per_entry = self.costs.merge_zb_per_entry
        else:
            entries = unit["bytes"] / WPA_ENTRY_BYTES
            per_entry = self.costs.merge_ap_per_entry
        self.buffers_in += 1
        self.entries_in += int(entries)
        self.bytes_in += unit["bytes"]
        return cost + entries * per_entry, None

    def result(self):
        """Final value exposed by this sink."""
        return {
            "algorithm": self.algorithm,
            "buffers": self.buffers_in,
            "entries": self.entries_in,
            "bytes": self.bytes_in,
        }

    def accumulator_bytes(self) -> int:
        """The full-screen merge buffer (see StageModel.accumulator_bytes)."""
        return self.width * self.height * ZBUFFER_ENTRY_BYTES
