"""Synthetic ParSSim-like reactive-transport datasets.

The paper's datasets are outputs of ParSSim, the parallel subsurface
simulator from TICAM: scalar concentration fields of several chemical
species on a rectilinear grid, evolving over timesteps.  We cannot ship
those outputs, so this module generates fields with the same character:
smooth plumes of each species advected through the domain by a steady flow,
spreading and decaying over time (think tracer transport in groundwater).

Fields are deterministic functions of ``(seed, timestep, species)`` so any
chunk can be materialised independently — exactly what declustered storage
needs — and small enough grids run in milliseconds for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.chunks import BYTES_PER_POINT, ChunkSpec
from repro.errors import DataError

__all__ = ["PlumeSpec", "ParSSimDataset"]


@dataclass(frozen=True)
class PlumeSpec:
    """One Gaussian plume: an injected solute packet advected by the flow."""

    center: tuple[float, float, float]  # fractional domain coordinates
    velocity: tuple[float, float, float]  # fractional units per timestep
    sigma: float  # plume radius, fractional
    amplitude: float
    growth: float  # sigma multiplier per timestep (dispersion)


class ParSSimDataset:
    """A synthetic multi-species, multi-timestep scalar dataset.

    Parameters
    ----------
    shape:
        Grid points per axis, (nz, ny, nx).
    timesteps:
        Number of stored timesteps.
    species:
        Number of chemical species (the paper's datasets have four).
    plumes_per_species:
        Gaussian packets per species.
    seed:
        Reproducibility seed; identical seeds give identical datasets.

    A field is evaluated in place: each plume's term
    ``amp * exp(-((dz² + dy²) + dx²) / (2σ²))`` is computed step by step, in
    that order, into one preallocated float64 array and added into the
    total, so a chunk costs two float64 arrays and the float32 it returns.
    The bits are those of the one expression per plume
    (``tests/data/test_parssim.py`` keeps it as the reference).
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        timesteps: int = 10,
        species: int = 4,
        plumes_per_species: int = 3,
        seed: int = 0,
    ):
        if len(shape) != 3 or any(s < 2 for s in shape):
            raise DataError(f"shape must be 3 axes of >= 2 points, got {shape}")
        if timesteps < 1 or species < 1 or plumes_per_species < 1:
            raise DataError("timesteps, species, plumes_per_species must be >= 1")
        self.shape = tuple(int(s) for s in shape)
        self.timesteps = timesteps
        self.species = species
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._plumes: list[list[PlumeSpec]] = []
        for _s in range(species):
            plumes = []
            for _p in range(plumes_per_species):
                plumes.append(
                    PlumeSpec(
                        center=tuple(rng.uniform(0.15, 0.5, size=3)),
                        velocity=tuple(rng.uniform(0.01, 0.05, size=3)),
                        sigma=float(rng.uniform(0.06, 0.14)),
                        amplitude=float(rng.uniform(0.6, 1.0)),
                        growth=float(rng.uniform(1.01, 1.06)),
                    )
                )
            self._plumes.append(plumes)
        # each axis's coordinates, made once; every chunk slices them
        self._axes = tuple(
            np.linspace(0.0, 1.0, n, dtype=np.float64) for n in self.shape
        )

    # -- sizes -------------------------------------------------------------
    @property
    def points_per_field(self) -> int:
        """Grid points in one (timestep, species) field."""
        nz, ny, nx = self.shape
        return nz * ny * nx

    @property
    def bytes_per_field(self) -> int:
        """Bytes of one scalar field (float32)."""
        return self.points_per_field * BYTES_PER_POINT

    @property
    def total_bytes(self) -> int:
        """Whole-dataset size across all timesteps and species."""
        return self.bytes_per_field * self.timesteps * self.species

    # -- field generation ----------------------------------------------------
    def field(self, timestep: int, species: int = 0) -> np.ndarray:
        """The full scalar field at ``timestep`` for ``species`` (float32).

        Values are normalised concentrations in ``[0, ~1]``.
        """
        self._check(timestep, species)
        return self._evaluate(timestep, species, *self._axes)

    def chunk_field(
        self, chunk: ChunkSpec, timestep: int, species: int = 0
    ) -> np.ndarray:
        """The scalar field restricted to one chunk (float32).

        Bit-identical to slicing :meth:`field` with ``chunk.slices()``.
        """
        self._check(timestep, species)
        z, y, x = (
            axis[a:b] for axis, a, b in zip(self._axes, chunk.start, chunk.stop)
        )
        return self._evaluate(timestep, species, z, y, x)

    def _evaluate(self, timestep, species, z, y, x) -> np.ndarray:
        z, y, x = z[:, None, None], y[None, :, None], x[None, None, :]
        total = np.zeros((z.size, y.size, x.size))
        term = np.empty_like(total)
        for plume in self._plumes[species]:
            cz, cy, cx = (
                plume.center[i] + plume.velocity[i] * timestep for i in range(3)
            )
            sigma = plume.sigma * plume.growth**timestep
            # Mass conservation: amplitude shrinks as the plume disperses.
            amp = plume.amplitude * (plume.sigma / sigma) ** 3
            np.add((z - cz) ** 2 + (y - cy) ** 2, (x - cx) ** 2, out=term)
            np.negative(term, out=term)
            np.divide(term, 2.0 * sigma**2, out=term)
            np.exp(term, out=term)
            np.multiply(amp, term, out=term)
            total += term
        return total.astype(np.float32)

    def _check(self, timestep: int, species: int) -> None:
        if not 0 <= timestep < self.timesteps:
            raise DataError(
                f"timestep {timestep} outside [0, {self.timesteps})"
            )
        if not 0 <= species < self.species:
            raise DataError(f"species {species} outside [0, {self.species})")

    def __repr__(self) -> str:
        return (
            f"<ParSSimDataset {self.shape} x{self.timesteps} steps "
            f"x{self.species} species, {self.total_bytes / 1e6:.1f} MB>"
        )
