"""The distributed tile framebuffer: tile-routed merge + gather filters.

The single Merge filter is the paper's one phase-synchronised sink — the
stage that cannot be transparently copied, so it caps every decomposition
no matter how many Extract/Raster copies run.  This module distributes it
(the Distributed FrameBuffer scheme): a :class:`~repro.core.tiles.TileMap`
partitions the viewport into tiles owned by N merge copies, raster filters
split their output per tile and tag each buffer with the owning copy, the
``TileRouted`` writer policy delivers every buffer to its owner, each
:class:`TileMergeFilter` copy composites only the tiles it owns, and a
final lightweight :class:`TileGatherFilter` pastes the composited tiles
into one :class:`~repro.viz.filters.RenderResult`.

Routing invariant: a buffer tagged ``{"tile": t, "tile_owner": o}`` holds
fragments of tile ``t`` only, and owner ``o`` is ``tile_map.tiles[t].owner``
— so copy ``o`` (the ``o``-th single-copy set of the merge filter, in
placement order) sees every fragment of its tiles and no others.  Tiles are
disjoint, so per-tile composition followed by a paste is bit-exact against
the single-merge baseline.

Payloads: z-buffer rasters ship :class:`TileSlab` (a contiguous dense range
in *tile-local* row-major order); active-pixel rasters ship per-tile
:class:`~repro.viz.active_pixel.WPABuffer` subsets whose pixel indices stay
*global* (the merge converts to tile-local coordinates).  The merge emits
one :class:`TileImage` per owned tile at end-of-work; a tile whose owner
received no fragments (active-pixel mode) simply never emits — the gather
starts from a black image and zero active pixels, matching the
single-merge background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.configurations import check_algorithm
from repro.core.buffer import DataBuffer
from repro.core.filter import Filter, FilterContext
from repro.core.tiles import Tile, TileMap
from repro.errors import DataError, EngineError
from repro.viz.active_pixel import WPABuffer
from repro.viz.filters import RenderResult
from repro.viz.raster import ZBUFFER_ENTRY_BYTES, ZBuffer

__all__ = [
    "TileSlab",
    "TileImage",
    "TileMergeFilter",
    "TileGatherFilter",
    "split_wpa",
    "zbuffer_tile_slabs",
]


@dataclass
class TileSlab:
    """A contiguous dense z-buffer range of one tile (tile-local indices).

    Duck-types :class:`~repro.viz.raster.ZBufferSlab` (``start`` / ``depth``
    / ``color``) so a tile-sized :class:`~repro.viz.raster.ZBuffer` can
    ``merge_slab`` it directly: ``start`` is the flat row-major offset
    *within the tile*, not the viewport.
    """

    tile: int
    start: int
    depth: np.ndarray  # (n,) float32
    color: np.ndarray  # (n, 3) uint8

    @property
    def nbytes(self) -> int:
        """Wire size: one entry per pixel regardless of activity."""
        return len(self.depth) * ZBUFFER_ENTRY_BYTES


@dataclass
class TileImage:
    """One composited tile: the TileMerge -> TileGather stream payload."""

    tile: int
    x0: int
    y0: int
    image: np.ndarray  # (tile height, tile width, 3) uint8
    active_pixels: int
    buffers_merged: int

    @property
    def nbytes(self) -> int:
        """Wire size: the tile's pixels plus the accounting fields."""
        return self.image.size + 16


def zbuffer_tile_slabs(
    zbuf: ZBuffer, tile_map: TileMap, entries_per_buffer: int
) -> Iterator[tuple[Tile, TileSlab]]:
    """Split a full-viewport z-buffer into per-tile dense slabs.

    Yields ``(tile, slab)`` pairs covering every pixel of every tile, each
    slab at most ``entries_per_buffer`` entries, in tile order — the
    tile-routed counterpart of :meth:`~repro.viz.raster.ZBuffer.slabs`.
    """
    depth = zbuf.depth.reshape(zbuf.height, zbuf.width)
    color = zbuf.color.reshape(zbuf.height, zbuf.width, 3)
    for tile in tile_map.tiles:
        tile_depth = depth[tile.y0 : tile.y1, tile.x0 : tile.x1].reshape(-1)
        tile_color = color[tile.y0 : tile.y1, tile.x0 : tile.x1].reshape(-1, 3)
        for start in range(0, tile.pixels, entries_per_buffer):
            stop = min(start + entries_per_buffer, tile.pixels)
            yield tile, TileSlab(
                tile.index,
                start,
                tile_depth[start:stop].copy(),
                tile_color[start:stop].copy(),
            )


def split_wpa(
    wpa: WPABuffer, tile_map: TileMap
) -> list[tuple[Tile, WPABuffer]]:
    """Split one WPA buffer into per-tile subsets (global pixel indices).

    Entry order within each subset is preserved; entries landing on no tile
    (only possible with an invalid map, which rule ``Z402`` rejects before a
    run) are dropped.
    """
    owners = tile_map.tile_of(wpa.pixels)
    out: list[tuple[Tile, WPABuffer]] = []
    for tile_index in np.unique(owners):
        if tile_index < 0:
            continue
        mask = owners == tile_index
        tile = tile_map.tiles[int(tile_index)]
        out.append(
            (
                tile,
                WPABuffer(
                    wpa.pixels[mask], wpa.depth[mask], wpa.color[mask]
                ),
            )
        )
    return out


class TileMergeFilter(Filter):
    """TM: composite the tiles this copy owns (one transparent copy each).

    Runs as N single-copy copy sets behind a ``TileRouted`` writer: each
    copy receives exactly the buffers tagged with its owner index, merges
    them into per-tile z-buffers, and emits one :class:`TileImage` per
    tile seen at end-of-work.  ``algorithm`` selects the payload type:
    ``"zbuffer"`` consumes :class:`TileSlab`, ``"active"`` consumes
    per-tile :class:`~repro.viz.active_pixel.WPABuffer` subsets.
    """

    def __init__(self, tile_map: TileMap, algorithm: str = "active"):
        check_algorithm(algorithm, DataError)
        self.tile_map = tile_map
        self.algorithm = algorithm

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._tiles: dict[int, ZBuffer] = {}
        self._buffers: dict[int, int] = {}

    def _tile_zbuf(self, tile_index: int) -> ZBuffer:
        zbuf = self._tiles.get(tile_index)
        if zbuf is None:
            tile = self.tile_map.tiles[tile_index]
            zbuf = self._tiles[tile_index] = ZBuffer(tile.width, tile.height)
            self._buffers[tile_index] = 0
        return zbuf

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        tile_index = buffer.tags.get("tile")
        if not isinstance(tile_index, int):
            raise EngineError(
                "TileMergeFilter needs a 'tile' tag on every buffer; "
                "was the producer given the tile map?"
            )
        zbuf = self._tile_zbuf(tile_index)
        if self.algorithm == "zbuffer":
            zbuf.merge_slab(buffer.payload)
        else:
            tile = self.tile_map.tiles[tile_index]
            wpa: WPABuffer = buffer.payload
            y, x = np.divmod(wpa.pixels, self.tile_map.width)
            local = (y - tile.y0) * tile.width + (x - tile.x0)
            zbuf.merge_entries(local, wpa.depth, wpa.color)
        self._buffers[tile_index] += 1

    def flush(self, ctx: FilterContext) -> None:
        """End-of-work processing (see Filter.flush)."""
        for tile_index in sorted(self._tiles):
            tile = self.tile_map.tiles[tile_index]
            zbuf = self._tiles[tile_index]
            payload = TileImage(
                tile.index,
                tile.x0,
                tile.y0,
                zbuf.image().copy(),
                zbuf.active_pixels(),
                self._buffers[tile_index],
            )
            ctx.write(
                DataBuffer(payload.nbytes, payload, tags={"tile": tile.index})
            )

    def finalize(self, ctx: FilterContext) -> None:
        """Release per-unit-of-work resources (see Filter.finalize)."""
        del self._tiles
        del self._buffers


class TileGatherFilter(Filter):
    """G: paste composited tiles into the final :class:`RenderResult`.

    A single-copy linear gather — each incoming :class:`TileImage` is one
    O(tile pixels) paste, so the stage's work is the viewport size once,
    independent of fragment counts; the heavy depth-testing already
    happened in the distributed merge copies.
    """

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._image = np.zeros((self.height, self.width, 3), dtype=np.uint8)
        self._active = 0
        self._buffers = 0
        self._done = False

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        tile_image: TileImage = buffer.payload
        th, tw = tile_image.image.shape[:2]
        y0, x0 = tile_image.y0, tile_image.x0
        self._image[y0 : y0 + th, x0 : x0 + tw] = tile_image.image
        self._active += tile_image.active_pixels
        self._buffers += tile_image.buffers_merged

    def flush(self, ctx: FilterContext) -> None:
        """End-of-work processing (see Filter.flush)."""
        self._done = True

    def result(self) -> RenderResult:
        """The assembled image (available after the run completes)."""
        if not getattr(self, "_done", False):
            raise EngineError(
                "TileGatherFilter has no result yet: run the pipeline first"
            )
        return RenderResult(self._image, self._active, self._buffers)
