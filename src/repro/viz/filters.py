"""Real isosurface-rendering filters (threaded engine).

The application decomposes into Read (R), Extract (E), Raster (Ra) and
Merge (M) filters (paper Figure 2b), each defined here exactly once.  The
combined RE, ERa and RERa stages of the three experimental configurations
(Figure 3) are not classes: :class:`~repro.viz.app.IsosurfaceApp` builds
them with :func:`repro.core.fuse.fuse` from these parts.  The filters do
real work on NumPy arrays and are exercised by the examples and the
correctness tests; their simulated counterparts live in
:mod:`repro.viz.models`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.configurations import check_algorithm
from repro.core.buffer import DataBuffer
from repro.core.filter import Filter, FilterContext
from repro.data.chunks import ChunkSource, ChunkSpec, chunk_range
from repro.data.storage import StorageMap
from repro.errors import DataError, EngineError
from repro.viz.active_pixel import ActivePixelMerger, ActivePixelRaster, WPABuffer
from repro.viz.camera import Camera
from repro.viz.marching_cubes import extract_mesh, range_excludes
from repro.viz.raster import ZBuffer, ZBufferSlab
from repro.viz.shading import DeferredShading

__all__ = [
    "ChunkPayload",
    "TrianglePayload",
    "RenderResult",
    "ReadFilter",
    "ExtractFilter",
    "RasterZFilter",
    "RasterAPFilter",
    "MergeZFilter",
    "MergeAPFilter",
    "raster_filter",
    "merge_filter",
    "TRIANGLE_BYTES",
    "chunks_needed",
]

#: Logical wire size of one triangle: 3 vertices x (x, y, z) float32, as the
#: paper ships them and as the simulator charges them.  E sends an indexed
#: mesh, whose physical payload is smaller; ``DataBuffer.nbytes`` counts
#: this size, so every engine accounts a stream's bytes alike.
TRIANGLE_BYTES = 36

#: Default z-buffer merge-stream buffer: entries per slab (2 MiB buffers at
#: 8 bytes/entry, the paper's Table 1 granularity).
ZB_SLAB_ENTRIES = 262144


@dataclass
class ChunkPayload:
    """Voxel data of one sub-volume: the R -> E stream payload."""

    chunk: ChunkSpec
    scalars: np.ndarray  # (dz, dy, dx) float32


@dataclass
class TrianglePayload:
    """World-space triangles as an indexed mesh: the E -> Ra stream payload.

    ``TrianglePayload(soup)`` of an (N, 3, 3) array is the mesh whose faces
    are ``0 .. 3N-1``.
    """

    vertices: np.ndarray  # (V, 3) float32
    faces: "np.ndarray | None" = None  # (N, 3) int32 rows of vertices

    def __post_init__(self) -> None:
        if self.faces is None:
            self.vertices = self.vertices.reshape(-1, 3)
            self.faces = np.arange(len(self.vertices), dtype=np.int32).reshape(-1, 3)

    @property
    def triangles(self) -> np.ndarray:
        """The (N, 3, 3) triangle soup."""
        return np.take(self.vertices, self.faces, axis=0)


@dataclass
class RenderResult:
    """Final output of the Merge filter."""

    image: np.ndarray  # (height, width, 3) uint8
    active_pixels: int
    buffers_merged: int


def _chunk_world_origin(chunk: ChunkSpec) -> tuple[float, float, float]:
    """World (x, y, z) position of a chunk's first grid point."""
    return (float(chunk.start[2]), float(chunk.start[1]), float(chunk.start[0]))


def chunks_needed(
    source: ChunkSource,
    chunks: "Iterable[ChunkSpec]",
    timestep: int,
    isovalue: "float | None",
    species: int = 0,
) -> "frozenset[int]":
    """Ids of the ``chunks`` a query at ``isovalue`` has to read.

    The one statement of the rule: all but those whose recorded value range
    (:func:`~repro.data.chunks.chunk_range`) rules out a triangle
    (:func:`~repro.viz.marching_cubes.range_excludes`).  A source without
    ranges (the in-memory generators) and no isovalue rule nothing out.
    """
    return frozenset(
        chunk.chunk_id
        for chunk in chunks
        if isovalue is None
        or not range_excludes(chunk_range(source, chunk, timestep, species), isovalue)
    )


def _copy_files(storage: StorageMap, ctx: FilterContext):
    """The declustered files this source copy is responsible for."""
    files = storage.files_on(ctx.host)
    return files[ctx.copy_index :: ctx.copies_on_host]


def _uow_get(ctx: FilterContext, key: str, default):
    """A per-unit-of-work override (``ctx.uow`` dict), or ``default``.

    Work cycles (``ThreadedEngine.run_cycles``) pass descriptors like
    ``{"timestep": 3}`` or ``{"camera": Camera(...)}`` so persistent filter
    instances can render a different timestep or viewpoint per cycle.
    """
    uow = getattr(ctx, "uow", None)
    if isinstance(uow, dict) and key in uow:
        return uow[key]
    return default


class ReadFilter(Filter):
    """R: read declustered chunk data from this copy's host.

    Emits one buffer per chunk the isosurface can cross, tagged with the
    chunk id.  Copies on the same host split the host's files round-robin.

    A chunk :func:`chunks_needed` rules out at the isovalue is not read,
    mapped or emitted; a dataset without ranges — the in-memory generators
    — is read whole.  The isovalue is the constructor's (none known:
    nothing is ruled out) or the unit of work's ``ctx.uow["isovalue"]``,
    as for :class:`ExtractFilter`.
    """

    def __init__(
        self,
        dataset: ChunkSource,
        storage: StorageMap,
        timestep: int,
        species: int = 0,
        isovalue: "float | None" = None,
    ):
        self.dataset = dataset
        self.storage = storage
        self.timestep = timestep
        self.species = species
        self.isovalue = isovalue

    def flush(self, ctx: FilterContext) -> None:
        """End-of-work processing (see Filter.flush)."""
        timestep = _uow_get(ctx, "timestep", self.timestep)
        species = _uow_get(ctx, "species", self.species)
        isovalue = _uow_get(ctx, "isovalue", self.isovalue)
        for data_file, _disk in _copy_files(self.storage, ctx):
            needed = chunks_needed(
                self.dataset, data_file.chunks, timestep, isovalue, species
            )
            for chunk in data_file.chunks:
                if chunk.chunk_id in needed:
                    scalars = self.dataset.chunk_field(chunk, timestep, species)
                    ctx.write(
                        DataBuffer(
                            chunk.nbytes,
                            ChunkPayload(chunk, scalars),
                            tags={"chunk": chunk.chunk_id},
                        )
                    )


class ExtractFilter(Filter):
    """E: marching cubes over each incoming chunk.

    The isovalue may be overridden per unit of work via
    ``ctx.uow["isovalue"]`` — this is how ``repro serve`` binds a query's
    isovalue onto a warm pipeline.
    """

    def __init__(self, isovalue: float):
        self.isovalue = isovalue

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        payload: ChunkPayload = buffer.payload
        vertices, faces = extract_mesh(
            payload.scalars,
            _uow_get(ctx, "isovalue", self.isovalue),
            origin=_chunk_world_origin(payload.chunk),
        )
        if len(faces) == 0:
            return
        ctx.write(
            DataBuffer(
                len(faces) * TRIANGLE_BYTES,
                TrianglePayload(vertices, faces),
                tags=dict(buffer.tags),
            )
        )


class _RasterBase(Filter):
    """Shared projection and shading for the raster filters.

    The active camera may be overridden per unit of work via
    ``ctx.uow["camera"]`` (latched at ``init``, when the cycle starts), by
    one of the pipeline's image size: the raster's buffers are sized at
    construction.
    """

    def __init__(
        self,
        camera: Camera,
        light_direction: tuple[float, float, float] = (0.4, -0.5, 0.8),
    ):
        self.camera = camera
        self._active_camera = camera
        self.light_direction = light_direction

    def _latch_camera(self, ctx: FilterContext) -> None:
        camera = _uow_get(ctx, "camera", self.camera)
        if (camera.width, camera.height) != (self.camera.width, self.camera.height):
            raise EngineError(
                f"the unit of work's camera is {camera.width}x{camera.height}, "
                f"but the pipeline renders "
                f"{self.camera.width}x{self.camera.height}"
            )
        self._active_camera = camera

    def _screen_and_colors(self, mesh: TrianglePayload):
        # Each vertex is projected once.  The rasterisers read colours only
        # at the triangles that win a pixel; shading is per row, so those
        # are shaded there, with the bits of shading every kept row.
        screen, kept = self._active_camera.project_and_cull(mesh.vertices, mesh.faces)
        return screen, DeferredShading(
            mesh.vertices, kept, self.light_direction, faces=mesh.faces
        )


class RasterZFilter(_RasterBase):
    """Ra (z-buffer): accumulate locally, ship the whole buffer at EOW.

    Placed as a sink (the image-partitioned pipelines of
    :mod:`repro.viz.partitioned`, which have no Merge) it ships nothing
    and exposes the accumulated frame as its :meth:`result` instead.
    """

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._latch_camera(ctx)
        self._zbuf = ZBuffer(self.camera.width, self.camera.height)
        self._buffers = 0

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        payload: TrianglePayload = buffer.payload
        screen, colors = self._screen_and_colors(payload)
        self._zbuf.rasterize(screen, colors)
        self._buffers += 1

    def flush(self, ctx: FilterContext) -> None:
        """End-of-work processing (see Filter.flush)."""
        if not ctx.output_streams:
            self._frame = RenderResult(
                self._zbuf.image(), self._zbuf.active_pixels(), self._buffers
            )
            return
        for slab in self._zbuf.slabs(ZB_SLAB_ENTRIES):
            ctx.write(DataBuffer(slab.nbytes, slab))

    def finalize(self, ctx: FilterContext) -> None:
        """Release per-unit-of-work resources (see Filter.finalize)."""
        del self._zbuf

    def result(self) -> RenderResult:
        """The frame of a raster placed as a sink (after the run)."""
        if not hasattr(self, "_frame"):
            raise EngineError(
                "RasterZFilter has no result yet: run the pipeline first"
            )
        return self._frame


class RasterAPFilter(_RasterBase):
    """Ra (active pixel): emit WPA buffers as input buffers are processed."""

    def __init__(
        self,
        camera,
        light_direction=(0.4, -0.5, 0.8),
        capacity_entries=5461,
    ):
        super().__init__(camera, light_direction)
        self.capacity_entries = capacity_entries

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._latch_camera(ctx)
        self._raster = ActivePixelRaster(
            self.camera.width, self.camera.height, self.capacity_entries
        )

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        payload: TrianglePayload = buffer.payload
        screen, colors = self._screen_and_colors(payload)
        for wpa in self._raster.process(screen, colors):
            ctx.write(DataBuffer(wpa.nbytes, wpa))

    def finalize(self, ctx: FilterContext) -> None:
        """Release per-unit-of-work resources (see Filter.finalize)."""
        del self._raster


class MergeZFilter(Filter):
    """M (z-buffer): depth-merge slabs, extract the final image."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._zbuf = ZBuffer(self.width, self.height)
        self._buffers = 0

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        slab: ZBufferSlab = buffer.payload
        self._zbuf.merge_slab(slab)
        self._buffers += 1

    def result(self) -> RenderResult:
        """The composited image (available after the run completes)."""
        if not hasattr(self, "_zbuf"):
            raise EngineError(
                "MergeZFilter has no result yet: run the pipeline first"
            )
        return RenderResult(
            self._zbuf.image(), self._zbuf.active_pixels(), self._buffers
        )


class MergeAPFilter(Filter):
    """M (active pixel): depth-merge WPA buffers as they arrive."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._merger = ActivePixelMerger(self.width, self.height)

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        wpa: WPABuffer = buffer.payload
        self._merger.merge(wpa)

    def result(self) -> RenderResult:
        """The composited image (available after the run completes)."""
        if not hasattr(self, "_merger"):
            raise EngineError(
                "MergeAPFilter has no result yet: run the pipeline first"
            )
        return RenderResult(
            self._merger.image(),
            self._merger.active_pixels(),
            self._merger.buffers_merged,
        )


def raster_filter(algorithm: str, camera: Camera) -> Filter:
    """The Ra part for ``algorithm`` (z-buffer or active pixel)."""
    check_algorithm(algorithm, DataError)
    cls = RasterZFilter if algorithm == "zbuffer" else RasterAPFilter
    return cls(camera)


def merge_filter(algorithm: str, width: int, height: int) -> Filter:
    """The M part for ``algorithm`` (z-buffer or active pixel)."""
    check_algorithm(algorithm, DataError)
    cls = MergeZFilter if algorithm == "zbuffer" else MergeAPFilter
    return cls(width, height)
