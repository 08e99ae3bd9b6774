"""Image-space partitioning: the paper's proposed Merge-free alternative.

The conclusions (Section 6) observe that with many raster copies the single
Merge filter becomes a bottleneck and propose an alternative: "partition
the image space into subregions among the raster filters, thus eliminating
the merge filter.  However, this will cause load imbalance among raster
filters if the amount of data for each subregion is not the same."  This
module builds that design from the ordinary stage parts so the trade-off
can be measured (``benchmarks/test_ablation_image_partition.py``):

- the screen is cut into column strips, one owner each
  (:func:`strip_bounds`);
- the source stage is ``fuse(R, E, route)``: the route part sends each
  triangle to every strip its projection overlaps (a triangle spanning a
  boundary is drawn by both owners; each keeps only its own columns, so
  the assembled image is exact), writing Extract's vertices and the faces
  of owner ``o``'s triangles to output stream ``o``.  It projects with the
  rasters' camera: the unit of work's ``camera`` when it names one, as for
  the raster part;
- each owner is its own sink ``Ra<o>``, the ordinary raster part fed by
  its own stream ``RE->Ra<o>``, so every engine delivers a strip's
  triangles by stream name under any writer policy.  There is no Merge.

:func:`build_partitioned_graph` carries cost models and — given a dataset
— real factories; :func:`assemble_strips` rebuilds the full image for
correctness checks against the merge-based pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffer import DataBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.fuse import StageModel, Unit, fuse, fuse_models
from repro.core.graph import FilterGraph
from repro.data.storage import StorageMap
from repro.errors import ConfigurationError
from repro.viz.camera import Camera, fold_vertices
from repro.viz.filters import (
    TRIANGLE_BYTES,
    ExtractFilter,
    ReadFilter,
    RenderResult,
    TrianglePayload,
    _uow_get,
    raster_filter,
)
from repro.viz.models import (
    BufferSizes,
    CostParams,
    ExtractModel,
    ReadSourceModel,
    _emit_stream_buffers,
    _split_counts,
    raster_model,
)
from repro.viz.profile import DatasetProfile

__all__ = [
    "StripRouteFilter",
    "StripRouteModel",
    "assemble_strips",
    "build_partitioned_graph",
    "strip_bounds",
]


def strip_bounds(width: int, regions: int) -> list[int]:
    """Column boundaries of ``regions`` strips over ``width`` pixels.

    Owner ``o`` draws columns ``[bounds[o], bounds[o + 1])``; remainder
    columns spread over the strips, so every width partitions exactly and
    no strip is empty.
    """
    if not 1 <= regions <= width:
        raise ConfigurationError(
            f"need 1 <= regions <= width, got {regions} regions for width {width}"
        )
    return [owner * width // regions for owner in range(regions + 1)]


class StripRouteFilter(Filter):
    """Write each triangle to the stream of every strip its x-extent overlaps.

    Output stream ``o`` (in connection order) feeds strip owner ``o``.  The
    camera may be overridden per unit of work via ``ctx.uow["camera"]``
    (latched at ``init``), exactly as the raster parts do — so a triangle
    goes to the strips it covers in the view it is drawn in.
    """

    def __init__(self, camera: Camera, bounds: list[int]):
        self.camera = camera
        self._active_camera = camera
        self.bounds = bounds

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._active_camera = _uow_get(ctx, "camera", self.camera)

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        mesh: TrianglePayload = buffer.payload
        screen, kept = self._active_camera.project_and_cull(mesh.vertices, mesh.faces)
        if len(kept) == 0:
            return
        faces = np.take(mesh.faces, kept, axis=0)
        xmin = fold_vertices(np.minimum, screen[:, :, 0])
        xmax = fold_vertices(np.maximum, screen[:, :, 0])
        strips = zip(ctx.output_streams, self.bounds, self.bounds[1:])
        for stream, x0, x1 in strips:
            overlap = (xmax >= x0) & (xmin < x1)
            if not overlap.any():
                continue
            subset = faces[overlap]
            ctx.write(
                DataBuffer(
                    len(subset) * TRIANGLE_BYTES,
                    TrianglePayload(mesh.vertices, subset),
                    tags=dict(buffer.tags),
                ),
                stream,
            )


def assemble_strips(results: list[RenderResult], bounds: list[int]) -> np.ndarray:
    """Stitch the owners' frames back into the full image.

    ``results`` holds one frame per owner *in owner order* — what the real
    engines return for the sinks ``Ra0 .. Ra<n-1>`` in graph order;
    ``bounds`` is :func:`strip_bounds` of the graph.  Each owner's frame is
    valid on its own columns only.
    """
    owners = len(bounds) - 1
    if len(results) != owners:
        raise ConfigurationError(
            f"{len(results)} strip results for {owners} owners"
        )
    image = np.zeros_like(results[0].image)
    for result, x0, x1 in zip(results, bounds, bounds[1:]):
        image[:, x0:x1] = result.image[:, x0:x1]
    return image


class StripRouteModel(StageModel):
    """Splits each unit's triangles over the strips' streams by ``weights``.

    The weights are the share of triangles landing in each strip (the
    paper's predicted load-imbalance risk).  Routing itself is not priced.
    """

    def __init__(self, buffers: BufferSizes, streams: list[str], weights: list[float]):
        self.buffers = buffers
        self.streams = streams
        self.weights = weights

    def step(self, unit: Unit, cost: float):
        """The triangles flow on, unpriced (see StageModel.step)."""
        return cost, unit

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Per-strip triangle buffers, each tagged with its owner's stream."""
        out: list[DataBuffer] = []
        shares = _split_counts(unit["triangles"], self.weights)
        for stream, share in zip(self.streams, shares):
            for buffer in _emit_stream_buffers(
                share * TRIANGLE_BYTES, self.buffers.triangles, triangles=share
            ):
                buffer.tags["stream"] = stream
                out.append(buffer)
        return out


def build_partitioned_graph(
    profile: DatasetProfile,
    storage: StorageMap,
    timestep: int,
    width: int,
    height: int,
    regions: int,
    costs: CostParams | None = None,
    buffers: BufferSizes | None = None,
    region_weights: list[float] | None = None,
    dataset: object | None = None,
    isovalue: float = 0.5,
) -> FilterGraph:
    """``RE`` source -> one ``Ra<o>`` sink per region, no Merge.

    Strip owner ``o`` is the single-copy sink ``Ra<o>`` fed by stream
    ``RE->Ra<o>``; place each where it should run.  With a ``dataset``
    (any ``chunk_field`` provider) the graph also carries real factories
    (z-buffer rasters; see :func:`assemble_strips`).
    """
    bounds = strip_bounds(width, regions)
    weights = region_weights or [1.0] * regions
    if len(weights) != regions or any(w < 0 for w in weights):
        raise ConfigurationError("need one non-negative weight per region")
    if sum(weights) <= 0:
        raise ConfigurationError("region weights sum to zero")
    costs = costs or CostParams()
    buffers = buffers or BufferSizes()
    camera = Camera.fit_grid(profile.grid_shape, width=width, height=height)
    real = dataset is not None
    owners = [f"Ra{owner}" for owner in range(regions)]
    streams = [f"RE->{name}" for name in owners]
    graph = FilterGraph()
    graph.add_filter(
        "RE",
        factory=(
            lambda: fuse(
                ReadFilter(dataset, storage, timestep, isovalue=isovalue),
                ExtractFilter(isovalue),
                StripRouteFilter(camera, bounds),
            )
        )
        if real
        else None,
        sim_factory=lambda: fuse_models(
            ReadSourceModel(profile, storage, timestep, costs, buffers),
            ExtractModel(costs, buffers),
            StripRouteModel(buffers, streams, weights),
        ),
        is_source=True,
    )
    for name, stream in zip(owners, streams):
        graph.add_filter(
            name,
            factory=(lambda: raster_filter("zbuffer", camera)) if real else None,
            # A strip owner rasterises into its own region; fragments per
            # triangle are unchanged (the triangle's area is what it is).
            sim_factory=lambda: raster_model("active", costs, buffers, width, height),
            phase_synchronised=True,
        )
        graph.connect("RE", name, stream)
    return graph
