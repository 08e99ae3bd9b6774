"""Dataset profiles: what the simulated engine knows about a dataset.

A :class:`DatasetProfile` describes a (possibly paper-scale) dataset without
materialising it: the chunk layout, the declustered files, and per-chunk
isosurface triangle counts per timestep.  Three constructors:

- :meth:`DatasetProfile.layout` — the chunk grid and the Hilbert file
  assignment alone, no triangle counts: all a
  :class:`~repro.data.diskstore.DeclusteredStore` write and the real
  filters need (what ``repro serve`` builds a scene from);
- :meth:`DatasetProfile.synthetic` — seeds a drifting spherical-shell
  activity model (an advected plume front) and distributes a target triangle
  total over chunks accordingly; used for paper-scale runs where the 1.5 GB
  and 25 GB ParSSim outputs cannot be materialised;
- :meth:`DatasetProfile.measured` — a layout plus a census: runs the real
  marching-cubes counter over a (small)
  :class:`~repro.data.parssim.ParSSimDataset`, making simulation and real
  execution agree exactly.

The simulated engine prices triangles, so it needs one of the last two: a
layout's :meth:`~DatasetProfile.triangles` raises rather than count zero.

``dataset_1p5gb`` / ``dataset_25gb`` reproduce the paper's two datasets
(Section 4), with a ``scale`` knob to shrink them proportionally so benches
finish quickly; scaling preserves the compute/IO/network balance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.chunks import (
    ChunkSource,
    ChunkSpec,
    partition_counts,
    partition_grid,
)
from repro.data.decluster import DataFile, decluster
from repro.errors import DataError
from repro.viz.marching_cubes import triangle_count

__all__ = ["DatasetProfile", "dataset_1p5gb", "dataset_25gb"]


@dataclass
class DatasetProfile:
    """Chunked, declustered dataset description for the simulated engine."""

    name: str
    grid_shape: tuple[int, int, int]
    chunks: list[ChunkSpec]
    files: list[DataFile]
    timesteps: int
    #: timestep -> (nchunks,) int64 triangles per chunk; None on a layout
    tri_counts: "dict[int, np.ndarray] | None"

    def __post_init__(self) -> None:
        for t, counts in (self.tri_counts or {}).items():
            if len(counts) != len(self.chunks):
                raise DataError(
                    f"timestep {t}: {len(counts)} triangle counts for "
                    f"{len(self.chunks)} chunks"
                )

    # -- queries ---------------------------------------------------------------
    def _counts(self, timestep: int) -> np.ndarray:
        if self.tri_counts is None:
            raise DataError(
                f"profile {self.name!r} is a layout: it counts no triangles "
                f"(DatasetProfile.measured or .synthetic does)"
            )
        return self.tri_counts[timestep]

    def triangles(self, timestep: int, chunk_id: int) -> int:
        """Triangles chunk ``chunk_id`` contributes at ``timestep``."""
        return int(self._counts(timestep)[chunk_id])

    def total_triangles(self, timestep: int) -> int:
        """Total isosurface triangles at ``timestep``."""
        return int(self._counts(timestep).sum())

    @property
    def bytes_per_timestep(self) -> int:
        """Stored bytes of one timestep (including chunk ghost layers)."""
        return sum(c.nbytes for c in self.chunks)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        name: str,
        grid_shape: tuple[int, int, int],
        nchunks: int,
        nfiles: int,
        timesteps: int,
        total_triangles: int,
        seed: int = 0,
        shell_thickness: float = 0.12,
    ) -> "DatasetProfile":
        """Build a profile with a drifting-shell triangle distribution.

        The isosurface of an advected plume is (roughly) a closed front; we
        model the per-chunk triangle density as a Gaussian shell around a
        centre that drifts and a radius that grows with time, then scale the
        densities to hit ``total_triangles`` per timestep.
        """
        if total_triangles < 0:
            raise DataError("total_triangles must be >= 0")
        counts3 = partition_counts(grid_shape, nchunks, exact=False)
        chunks = partition_grid(grid_shape, counts3)
        files = decluster(chunks, nfiles)
        rng = np.random.default_rng(seed)
        centre0 = rng.uniform(0.3, 0.5, size=3)
        drift = rng.uniform(0.01, 0.03, size=3)
        r0 = rng.uniform(0.15, 0.25)
        r_growth = rng.uniform(0.01, 0.02)

        # Chunk centres in fractional grid coordinates.
        centres = np.array(
            [
                [
                    (c.start[d] + c.stop[d]) / 2.0 / grid_shape[d]
                    for d in range(3)
                ]
                for c in chunks
            ]
        )
        tri_counts: dict[int, np.ndarray] = {}
        for t in range(timesteps):
            centre = centre0 + drift * t
            radius = r0 + r_growth * t
            dist = np.linalg.norm(centres - centre, axis=1)
            weight = np.exp(-((dist - radius) ** 2) / (2 * shell_thickness**2))
            total_w = weight.sum()
            if total_w <= 0:  # pragma: no cover - degenerate seed
                weight = np.ones(len(chunks))
                total_w = weight.sum()
            counts = np.floor(weight / total_w * total_triangles).astype(np.int64)
            # Distribute the rounding remainder to the heaviest chunks.
            deficit = total_triangles - int(counts.sum())
            if deficit > 0:
                order = np.argsort(weight)[::-1][:deficit]
                counts[order] += 1
            tri_counts[t] = counts
        return cls(name, tuple(grid_shape), chunks, files, timesteps, tri_counts)

    @classmethod
    def layout(
        cls,
        name: str,
        shape: tuple[int, int, int],
        timesteps: int,
        nchunks: int,
        nfiles: int,
    ) -> "DatasetProfile":
        """The chunk grid of ``shape`` and its Hilbert file assignment.

        No triangle counts (``tri_counts`` is None): enough to write a
        declustered store and build the real filters, not to simulate.
        """
        shape = tuple(int(s) for s in shape)
        chunks = partition_grid(
            shape, partition_counts(shape, nchunks, exact=False)
        )
        return cls(
            name, shape, chunks, decluster(chunks, nfiles), timesteps, None
        )

    @classmethod
    def measured(
        cls,
        name: str,
        dataset: ChunkSource,
        nchunks: int,
        nfiles: int,
        isovalue: float,
        species: int = 0,
    ) -> "DatasetProfile":
        """Profile a real (small) dataset by counting actual triangles."""
        profile = cls.layout(
            name, dataset.shape, dataset.timesteps, nchunks, nfiles
        )
        tri_counts = {}
        for t in range(dataset.timesteps):
            counts = tri_counts[t] = np.zeros(
                len(profile.chunks), dtype=np.int64
            )
            for c in profile.chunks:
                scalars = dataset.chunk_field(c, t, species)
                counts[c.chunk_id] = triangle_count(scalars, isovalue)
        return replace(profile, tri_counts=tri_counts)


def _scaled(extent: int, scale: float) -> int:
    return max(9, int(round(extent * scale ** (1 / 3))))


def dataset_1p5gb(scale: float = 1.0, seed: int = 1) -> DatasetProfile:
    """The paper's first dataset: 1.5 GB, 208^3-point grid per
    (timestep, species) field, 1536 sub-volumes, 64 files, 10 timesteps.

    ``scale`` shrinks total bytes (and triangles) linearly; chunk and file
    counts shrink with it so per-chunk sizes stay realistic.
    """
    if not 0 < scale <= 1.0:
        raise DataError(f"scale must be in (0, 1], got {scale}")
    shape = tuple(_scaled(208, scale) for _ in range(3))
    nchunks = max(64, int(1536 * scale))
    nfiles = min(64, nchunks)  # the paper always declusters into 64 files
    total_tris = max(1000, int(250_000 * scale ** (2 / 3)))
    return DatasetProfile.synthetic(
        f"parssim-1.5GB(x{scale:g})",
        shape,
        nchunks=nchunks,
        nfiles=nfiles,
        timesteps=10,
        total_triangles=total_tris,
        seed=seed,
    )


def dataset_25gb(scale: float = 1.0, seed: int = 2) -> DatasetProfile:
    """The paper's second dataset: 25 GB, ~2.5 GB per timestep
    (1024x1024x640 points), 24 576 sub-volumes, 64 files, 10 timesteps."""
    if not 0 < scale <= 1.0:
        raise DataError(f"scale must be in (0, 1], got {scale}")
    shape = (
        _scaled(640, scale),
        _scaled(1024, scale),
        _scaled(1024, scale),
    )
    nchunks = max(64, int(24_576 * scale))
    nfiles = min(64, nchunks)  # the paper always declusters into 64 files
    total_tris = max(2000, int(1_600_000 * scale ** (2 / 3)))
    return DatasetProfile.synthetic(
        f"parssim-25GB(x{scale:g})",
        shape,
        nchunks=nchunks,
        nfiles=nfiles,
        timesteps=10,
        total_triangles=total_tris,
        seed=seed,
    )
