"""Partitioning rectilinear grids into equal sub-volumes (chunks).

The paper partitions each timestep's grid into equal sub-volumes (1536 for
the 1.5 GB dataset, 24 576 for the 25 GB dataset).  A :class:`ChunkSpec`
identifies one sub-volume: its integer lattice position in the chunk grid,
its grid-point slice ranges, and its size in bytes.

Chunks overlap by one grid point along each axis (configurable) so marching
cubes can emit the triangles of boundary cells without inter-chunk
communication — the standard ghost-layer arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import DataError

__all__ = [
    "ChunkSource", "ChunkSpec", "chunk_range", "partition_grid",
    "partition_counts",
]

BYTES_PER_POINT = 4  # float32 scalar field


@dataclass(frozen=True)
class ChunkSpec:
    """One sub-volume of a timestep's grid.

    ``index`` is the chunk's (iz, iy, ix) position in the chunk grid;
    ``start``/``stop`` are grid-point slice bounds per axis (stop exclusive),
    including the ghost overlap.
    """

    chunk_id: int
    index: tuple[int, int, int]
    start: tuple[int, int, int]
    stop: tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Grid points per axis, including ghost layers."""
        return tuple(b - a for a, b in zip(self.start, self.stop))

    @property
    def points(self) -> int:
        """Total grid points in the chunk."""
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    @property
    def nbytes(self) -> int:
        """Chunk size in bytes (float32 scalars)."""
        return self.points * BYTES_PER_POINT

    def slices(self) -> tuple[slice, slice, slice]:
        """NumPy slices extracting this chunk from a (z, y, x) field."""
        return tuple(slice(a, b) for a, b in zip(self.start, self.stop))


class ChunkSource(Protocol):
    """Anything the Read filter can stream sub-volumes from.

    The synthetic generators (:class:`~repro.data.parssim.ParSSimDataset`,
    :class:`~repro.data.spectral.SpectralDataset`) compute a chunk on
    demand; a :class:`~repro.data.diskstore.DeclusteredStore` returns a
    read-only view of its file.

    A source that recorded the smallest and largest scalar of every chunk
    (the store does, as it writes them) also has a ``chunk_range`` method
    with ``chunk_field``'s arguments; one that did not simply lacks it —
    ask through :func:`chunk_range`.
    """

    shape: tuple[int, int, int]
    timesteps: int
    species: int

    def chunk_field(
        self, chunk: ChunkSpec, timestep: int, species: int = 0
    ) -> np.ndarray:
        """The ``chunk.shape`` float32 scalars of one chunk."""
        ...


def chunk_range(
    source: ChunkSource, chunk: ChunkSpec, timestep: int, species: int = 0
) -> "tuple[float, float] | None":
    """``(min, max)`` of one chunk's scalars, or ``None`` if not recorded."""
    recorded = getattr(source, "chunk_range", None)
    return None if recorded is None else recorded(chunk, timestep, species)


def partition_counts(
    shape: tuple[int, int, int], nchunks: int, exact: bool = True
) -> tuple[int, int, int]:
    """Factor ``nchunks`` into per-axis counts as cubically as possible.

    With ``exact=True``, chooses the factorization ``(cz, cy, cx)`` with
    ``cz*cy*cx == nchunks`` minimising the spread of per-chunk extents,
    preferring more chunks along longer axes; raises :class:`DataError` if
    no factorization fits the grid (each axis needs at least 2 grid points
    per chunk).  With ``exact=False``, falls back to the nearest achievable
    per-axis counts (product approximately ``nchunks``) when no exact
    factorization fits — useful for scaled-down dataset profiles where the
    requested count may be prime.
    """
    if nchunks < 1:
        raise DataError(f"nchunks must be >= 1, got {nchunks}")
    best: tuple[float, tuple[int, int, int]] | None = None
    for cz in _divisors(nchunks):
        rest = nchunks // cz
        for cy in _divisors(rest):
            cx = rest // cy
            counts = (cz, cy, cx)
            if any(c > max(1, s - 1) for c, s in zip(counts, shape)):
                continue
            extents = [s / c for s, c in zip(shape, counts)]
            score = max(extents) / min(extents)
            if best is None or score < best[0]:
                best = (score, counts)
    if best is not None:
        return best[1]
    if not exact:
        volume = shape[0] * shape[1] * shape[2]
        density = (nchunks / volume) ** (1 / 3)
        approx = tuple(
            max(1, min(s - 1, round(s * density))) for s in shape
        )
        if all(1 <= c <= s - 1 for c, s in zip(approx, shape)):
            return approx
    raise DataError(f"cannot partition grid {shape} into {nchunks} chunks")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def partition_grid(
    shape: tuple[int, int, int],
    counts: tuple[int, int, int],
    overlap: int = 1,
) -> list[ChunkSpec]:
    """Split a grid of ``shape`` points into ``counts`` chunks per axis.

    Chunk boundaries are computed by even division of the cell range; each
    chunk is then extended by ``overlap`` grid points at its high side (ghost
    layer), clamped to the grid, so adjacent chunks share boundary cells.
    Chunk ids follow Hilbert-friendly (iz, iy, ix) raster order.
    """
    if len(shape) != 3 or len(counts) != 3:
        raise DataError("shape and counts must be 3-tuples")
    if overlap < 0:
        raise DataError(f"overlap must be >= 0, got {overlap}")
    for s, c in zip(shape, counts):
        if c < 1:
            raise DataError(f"chunk counts must be >= 1, got {counts}")
        if s < 2:
            raise DataError(f"grid extent must be >= 2 points, got {shape}")
        if c > s - 1:
            raise DataError(
                f"{c} chunks along an axis of {s} points leaves empty chunks"
            )
    # Split the *cells* (shape-1 per axis) evenly; chunk points = cells + 1.
    bounds = []
    for s, c in zip(shape, counts):
        cells = s - 1
        cuts = [round(i * cells / c) for i in range(c + 1)]
        bounds.append(cuts)
    chunks: list[ChunkSpec] = []
    cid = 0
    for iz in range(counts[0]):
        for iy in range(counts[1]):
            for ix in range(counts[2]):
                idx = (iz, iy, ix)
                start = tuple(bounds[d][idx[d]] for d in range(3))
                stop = tuple(
                    min(bounds[d][idx[d] + 1] + overlap, shape[d]) for d in range(3)
                )
                chunks.append(ChunkSpec(cid, idx, start, stop))
                cid += 1
    return chunks
