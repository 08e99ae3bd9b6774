"""Image-space partitioning: the paper's proposed Merge-free alternative.

The conclusions (Section 6) observe that with many raster copies the single
Merge filter becomes a bottleneck and propose an alternative: "partition
the image space into subregions among the raster filters, thus eliminating
the merge filter.  However, this will cause load imbalance among raster
filters if the amount of data for each subregion is not the same."  This
module builds that design from the ordinary stage parts so the trade-off
can be measured (``benchmarks/test_ablation_image_partition.py``):

- the screen is a :class:`~repro.core.tiles.TileMap` of column tiles, one
  owner each (``TileMap.grid(width, height, regions, 1)``);
- the source stage is ``fuse(R, E, route)``: the route part sends each
  triangle to every tile its projection overlaps (a triangle spanning a
  boundary is drawn by both owners; each keeps only its own columns, so
  the assembled image is exact), tagged with its ``tile_owner``.  It
  projects with the rasters' camera: the unit of work's ``camera`` when it
  names one, as for the raster part;
- ``Ra`` is the ordinary raster part placed as a *sink*, one single-copy
  set per owner in owner order (:func:`owner_hosts`); it declares the tile
  map, so every engine routes ``RE->Ra`` by the owner tag.  There is no
  Merge.

:func:`build_partitioned_graph` carries cost models and — given a dataset
— real factories; ``assemble_strips`` rebuilds the full image for
correctness checks against the merge-based pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffer import DataBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.fuse import StageModel, Unit, fuse, fuse_models
from repro.core.graph import FilterGraph
from repro.core.tiles import Tile, TileMap
from repro.data.storage import StorageMap
from repro.errors import ConfigurationError
from repro.viz.camera import Camera
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
    "owner_hosts",
]


def owner_hosts(owners: int, compute_hosts: list[str], anchor: str) -> list[str]:
    """One distinct host label per tile owner, in owner order.

    A tile-routed consumer runs one single-copy set per owner (copies
    sharing a host share one queue, breaking owner routing), so a testbed
    with fewer hosts than owners is padded with virtual ``anchor:mN``
    labels.
    """
    hosts = list(compute_hosts[:owners])
    index = 0
    while len(hosts) < owners:
        label = f"{anchor}:m{index}"
        if label not in hosts:
            hosts.append(label)
        index += 1
    return hosts


class StripRouteFilter(Filter):
    """Route triangles to the owners of the tiles their x-extent overlaps.

    The camera may be overridden per unit of work via ``ctx.uow["camera"]``
    (latched at ``init``), exactly as the raster parts do — so a triangle
    goes to the strips it covers in the view it is drawn in.
    """

    def __init__(self, camera: Camera, tile_map: TileMap):
        self.camera = camera
        self._active_camera = camera
        self.tile_map = tile_map

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._active_camera = _uow_get(ctx, "camera", self.camera)

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        tris = buffer.payload.triangles
        screen, kept = self._active_camera.project_and_cull(tris)
        world = tris[kept]
        if len(world) == 0:
            return
        xmin = screen[:, :, 0].min(axis=1)
        xmax = screen[:, :, 0].max(axis=1)
        for tile in self.tile_map.tiles:
            overlap = (xmax >= tile.x0) & (xmin < tile.x1)
            if not overlap.any():
                continue
            subset = world[overlap]
            ctx.write(
                DataBuffer(
                    len(subset) * TRIANGLE_BYTES,
                    TrianglePayload(subset),
                    tags={
                        **buffer.tags,
                        "tile": tile.index,
                        "tile_owner": tile.owner,
                    },
                )
            )


def assemble_strips(
    results: list[RenderResult], tile_map: TileMap
) -> np.ndarray:
    """Stitch the owners' frames back into the full image.

    ``results`` holds one frame per owner *in owner order* — what the real
    engines return for ``Ra`` placed as owner-ordered single-copy sets.
    Each owner's frame is valid on its own tiles only.
    """
    if len(results) != tile_map.n_owners:
        raise ConfigurationError(
            f"{len(results)} strip results for {tile_map.n_owners} owners"
        )
    image = np.zeros((tile_map.height, tile_map.width, 3), dtype=np.uint8)
    for tile in tile_map.tiles:
        image[tile.y0 : tile.y1, tile.x0 : tile.x1] = results[
            tile.owner
        ].image[tile.y0 : tile.y1, tile.x0 : tile.x1]
    return image


def _tag_tiles(buffers: list[DataBuffer], tile: Tile) -> list[DataBuffer]:
    """Stamp tile-routing tags onto emitted buffers (in place)."""
    for buffer in buffers:
        buffer.tags["tile"] = tile.index
        buffer.tags["tile_owner"] = tile.owner
    return buffers


class StripRouteModel(StageModel):
    """Splits each unit's triangles over the tiles by ``weights``.

    The weights are the share of triangles landing in each strip (the
    paper's predicted load-imbalance risk).  Routing itself is not priced.
    """

    def __init__(self, buffers: BufferSizes, tile_map: TileMap, weights: list[float]):
        self.buffers = buffers
        self.tile_map = tile_map
        self.weights = weights

    def step(self, unit: Unit, cost: float):
        """The triangles flow on, unpriced (see StageModel.step)."""
        return cost, unit

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Per-tile triangle buffers, tagged with their owner."""
        out: list[DataBuffer] = []
        shares = _split_counts(unit["triangles"], self.weights)
        for tile, share in zip(self.tile_map.tiles, shares):
            out.extend(
                _tag_tiles(
                    _emit_stream_buffers(
                        share * TRIANGLE_BYTES,
                        self.buffers.triangles,
                        triangles=share,
                    ),
                    tile,
                )
            )
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
    """``RE`` source -> tile-routed ``Ra`` sinks, one per region, no Merge.

    Place ``Ra`` as ``regions`` single-copy sets in owner order (e.g.
    :func:`owner_hosts`); any engine runs the graph as it
    is, ``RE->Ra`` tile-routed because ``Ra`` declares the tile map.  With a
    ``dataset`` (any ``chunk_field`` provider) the graph also carries real
    factories (z-buffer rasters; see :func:`assemble_strips`).
    """
    if regions < 1:
        raise ConfigurationError(f"regions must be >= 1, got {regions}")
    weights = region_weights or [1.0] * regions
    if len(weights) != regions or any(w < 0 for w in weights):
        raise ConfigurationError("need one non-negative weight per region")
    if sum(weights) <= 0:
        raise ConfigurationError("region weights sum to zero")
    costs = costs or CostParams()
    buffers = buffers or BufferSizes()
    tile_map = TileMap.grid(width, height, regions, 1)
    camera = Camera.fit_grid(profile.grid_shape, width=width, height=height)
    real = dataset is not None
    graph = FilterGraph()
    graph.add_filter(
        "RE",
        factory=(
            lambda: fuse(
                ReadFilter(dataset, storage, timestep, isovalue=isovalue),
                ExtractFilter(isovalue),
                StripRouteFilter(camera, tile_map),
            )
        )
        if real
        else None,
        sim_factory=lambda: fuse_models(
            ReadSourceModel(profile, storage, timestep, costs, buffers),
            ExtractModel(costs, buffers),
            StripRouteModel(buffers, tile_map, weights),
        ),
        is_source=True,
    )
    graph.add_filter(
        "Ra",
        factory=(lambda: raster_filter("zbuffer", camera)) if real else None,
        # A strip owner rasterises into its own region; fragments per
        # triangle are unchanged (the triangle's area is what it is).
        sim_factory=lambda: raster_model("active", costs, buffers, width, height),
        phase_synchronised=True,
        tile_map=tile_map,
    )
    graph.connect("RE", "Ra")
    return graph
