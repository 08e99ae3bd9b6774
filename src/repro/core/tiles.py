"""Tile maps: partitioning a viewport among tile-owning consumer copies.

A :class:`TileMap` splits a ``width x height`` viewport into rectangular
:class:`Tile` regions, each *owned* by one copy of a tile-mapped consumer
(the strip rasters of :mod:`repro.viz.partitioned`: a producer tags each
buffer with the owner of its tile, and the stream delivers it to that
owner).  The map is pure geometry — it knows nothing about hosts or
engines; the ``owner`` index corresponds, by convention, to the owning
filter's copy-set order in the :class:`~repro.core.placement.Placement`
(copy set ``o`` receives every buffer tagged with owner ``o``).

A map that exists is valid: the constructor refuses tiles that leave
pixels uncovered, overlap, fall outside the viewport or number their
owners with holes.  :meth:`TileMap.grid` builds one for any viewport,
including sizes not divisible by the tile count and degenerate 1x1 tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Tile", "TileMap"]


@dataclass(frozen=True)
class Tile:
    """One rectangle of the viewport: ``[x0, x1) x [y0, y1)``, one owner."""

    index: int
    x0: int
    y0: int
    x1: int
    y1: int
    owner: int

    @property
    def width(self) -> int:
        """Tile width in pixels."""
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        """Tile height in pixels."""
        return self.y1 - self.y0

    @property
    def pixels(self) -> int:
        """Tile area in pixels."""
        return self.width * self.height

    def __repr__(self) -> str:
        return (
            f"<Tile {self.index} [{self.x0}:{self.x1})x[{self.y0}:{self.y1}) "
            f"owner={self.owner}>"
        )


def _problems(width: int, height: int, tiles: list[Tile]) -> list[str]:
    """Every way ``tiles`` fail to partition the viewport, as text.

    Checks: tiles inside the viewport with positive area, full coverage,
    no overlaps, and owner indices forming ``0..N-1`` with every owner
    owning at least one tile.
    """
    out: list[str] = []
    covered = np.zeros((height, width), dtype=np.int16)
    for tile in tiles:
        if tile.x0 >= tile.x1 or tile.y0 >= tile.y1:
            out.append(f"tile {tile.index} has non-positive area")
            continue
        if tile.x0 < 0 or tile.y0 < 0 or tile.x1 > width or tile.y1 > height:
            out.append(
                f"tile {tile.index} exceeds the {width}x{height} viewport"
            )
        x0, x1 = max(tile.x0, 0), min(tile.x1, width)
        y0, y1 = max(tile.y0, 0), min(tile.y1, height)
        if x0 < x1 and y0 < y1:
            covered[y0:y1, x0:x1] += 1
        if tile.owner < 0:
            out.append(f"tile {tile.index} has negative owner {tile.owner}")
    uncovered = int((covered == 0).sum())
    if uncovered:
        out.append(
            f"{uncovered} of {width * height} pixels are covered by no tile"
        )
    overlapped = int((covered > 1).sum())
    if overlapped:
        out.append(f"{overlapped} pixels are covered by multiple tiles")
    owners = {tile.owner for tile in tiles if tile.owner >= 0}
    if owners:
        missing = sorted(set(range(max(owners) + 1)) - owners)
        if missing:
            out.append(
                f"owner indices are not contiguous: {missing} own no tile"
            )
    return out


class TileMap:
    """An owner-assigned rectangular partition of a viewport.

    Parameters
    ----------
    width / height:
        Viewport size in pixels.
    tiles:
        The partition; ``tiles[i].index`` must equal ``i``, the tiles must
        cover every pixel exactly once, and the owners must number
        ``0..N-1`` — anything else raises :class:`ConfigurationError`
        naming every problem.
    """

    def __init__(self, width: int, height: int, tiles: list[Tile]) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError("tile map dimensions must be >= 1")
        if not tiles:
            raise ConfigurationError("tile map needs at least one tile")
        for i, tile in enumerate(tiles):
            if tile.index != i:
                raise ConfigurationError(
                    f"tile at position {i} has index {tile.index}; tiles "
                    f"must be listed in index order"
                )
        problems = _problems(width, height, tiles)
        if problems:
            raise ConfigurationError(
                f"tiles do not partition the {width}x{height} viewport: "
                + "; ".join(problems)
            )
        self.width = width
        self.height = height
        self.tiles = list(tiles)

    @classmethod
    def grid(cls, width: int, height: int, tiles_x: int, tiles_y: int) -> "TileMap":
        """A ``tiles_x x tiles_y`` grid in raster order, one owner per tile.

        Remainder columns and rows spread over the tiles, so every
        viewport size partitions exactly.
        """
        if not 1 <= tiles_x <= width or not 1 <= tiles_y <= height:
            raise ConfigurationError(
                f"need 1 <= tiles_x <= width and 1 <= tiles_y <= height, "
                f"got {tiles_x}x{tiles_y} for {width}x{height}"
            )
        tiles = []
        for ty in range(tiles_y):
            y0 = ty * height // tiles_y
            y1 = (ty + 1) * height // tiles_y
            for tx in range(tiles_x):
                x0 = tx * width // tiles_x
                x1 = (tx + 1) * width // tiles_x
                index = ty * tiles_x + tx
                tiles.append(Tile(index, x0, y0, x1, y1, index))
        return cls(width, height, tiles)

    @property
    def n_owners(self) -> int:
        """Number of owners the map routes to (highest owner index + 1)."""
        return max(tile.owner for tile in self.tiles) + 1

    def __repr__(self) -> str:
        return (
            f"<TileMap {self.width}x{self.height} {len(self.tiles)} tiles "
            f"{self.n_owners} owners>"
        )
