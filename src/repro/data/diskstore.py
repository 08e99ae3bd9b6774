"""On-disk declustered storage: real files for the Read filter.

The paper's datasets were "declustered across 64 data files ... and these
files were distributed across the disks".  This module materialises that
layout: :meth:`DeclusteredStore.write` serialises a synthetic dataset's
chunks into one binary file per declustered :class:`~repro.data.decluster.
DataFile` (per timestep and species), with a JSON manifest describing the
layout; :meth:`DeclusteredStore.open` reads it back lazily via memory maps.
The manifest also records, per (timestep, species, chunk), the smallest and
largest scalar written — the value-range index a reader consults to leave
alone the chunks an isosurface cannot cross (:meth:`DeclusteredStore.
chunk_range`).

A store quacks like a dataset (``shape`` / ``timesteps`` / ``species`` /
``chunk_field``), so it drops straight into
:class:`~repro.viz.app.IsosurfaceApp` as the ``dataset`` — the threaded
Read filter then performs real file I/O for every chunk it streams.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.chunks import ChunkSource, ChunkSpec
from repro.errors import DataError

__all__ = ["DeclusteredStore"]

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 2  # 2: per-chunk value ranges


def _bin_name(file_id: int, timestep: int, species: int) -> str:
    return f"t{timestep:03d}_s{species:02d}_f{file_id:03d}.bin"


class DeclusteredStore:
    """A directory of declustered chunk files plus a manifest.

    Use :meth:`write` to create one from any dataset/profile pair, and
    :meth:`open` to attach to an existing directory.
    """

    def __init__(self, directory: Path, manifest: dict):
        self.directory = Path(directory)
        self._manifest = manifest
        self.shape: tuple[int, int, int] = tuple(manifest["shape"])
        self.timesteps: int = manifest["timesteps"]
        self.species: int = manifest["species"]
        # chunk_id -> (file_id, offset bytes, shape)
        self._chunks: dict[int, tuple[int, int, tuple[int, int, int]]] = {
            entry["id"]: (entry["file"], entry["offset"], tuple(entry["shape"]))
            for entry in manifest["chunks"]
        }
        # chunk_id -> position k in manifest["chunks"], which is also its
        # position in manifest["ranges"][timestep][species]
        self._position: dict[int, int] = {
            entry["id"]: k for k, entry in enumerate(manifest["chunks"])
        }
        self._maps: dict[str, np.memmap] = {}

    # -- creation ------------------------------------------------------------
    @classmethod
    def write(
        cls,
        dataset: ChunkSource,
        profile,
        directory: str | Path,
        timesteps: list[int] | None = None,
        species: list[int] | None = None,
    ) -> "DeclusteredStore":
        """Materialise ``profile``'s declustered layout of ``dataset``.

        ``dataset`` is any :class:`~repro.data.chunks.ChunkSource` (the
        synthetic generators or another store), read once per (chunk,
        timestep, species); ``profile`` supplies the chunk grid and file
        assignment.  ``timesteps``/``species`` default to everything the
        dataset stores.  Each chunk's float32 buffer is written as is, with
        no copy.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        steps = list(timesteps if timesteps is not None else range(dataset.timesteps))
        specs = list(species if species is not None else range(dataset.species))
        if not steps or not specs:
            raise DataError("need at least one timestep and species")

        chunk_entries = []
        offsets_known = False
        # ranges[local_t][local_sp][k] = (min, max) of chunk_entries[k]:
        # store-local indices, like the file names
        ranges: list[list[list[tuple[float, float]]]] = [
            [[] for _ in specs] for _ in steps
        ]
        for local_t, t in enumerate(steps):
            for local_sp, sp in enumerate(specs):
                for data_file in profile.files:
                    offset = 0
                    # Files are named by *store-local* indices so a store
                    # written from a timestep subset reads back as 0..n-1.
                    path = directory / _bin_name(
                        data_file.file_id, local_t, local_sp
                    )
                    with open(path, "wb") as fh:
                        for chunk in data_file.chunks:
                            scalars = np.ascontiguousarray(
                                dataset.chunk_field(chunk, t, sp),
                                dtype=np.float32,
                            )
                            if scalars.shape != chunk.shape:
                                raise DataError(
                                    f"chunk {chunk.chunk_id}: dataset produced "
                                    f"{scalars.shape}, expected {chunk.shape}"
                                )
                            fh.write(scalars)
                            # min/max hand a NaN sample on: a range with
                            # one excludes no isovalue
                            ranges[local_t][local_sp].append(
                                (float(scalars.min()), float(scalars.max()))
                            )
                            if not offsets_known:
                                chunk_entries.append(
                                    {
                                        "id": chunk.chunk_id,
                                        "index": list(chunk.index),
                                        "start": list(chunk.start),
                                        "stop": list(chunk.stop),
                                        "file": data_file.file_id,
                                        "offset": offset,
                                        "shape": list(chunk.shape),
                                    }
                                )
                            offset += scalars.nbytes
                # The layout is identical for every (timestep, species);
                # chunk offsets are recorded once, on the first pass.
                offsets_known = True

        manifest = {
            "version": _FORMAT_VERSION,
            "shape": list(profile.grid_shape),
            "timesteps": len(steps),
            "species": len(specs),
            "chunks": chunk_entries,
            "ranges": ranges,
        }
        with open(directory / _MANIFEST, "w") as fh:
            json.dump(manifest, fh)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: str | Path) -> "DeclusteredStore":
        """Attach to an existing store directory."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise DataError(f"no manifest in {directory}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("version") != _FORMAT_VERSION:
            raise DataError(
                f"unsupported store version {manifest.get('version')!r}"
            )
        return cls(directory, manifest)

    # -- dataset interface -------------------------------------------------
    def _locate(
        self, chunk: ChunkSpec, timestep: int, species: int
    ) -> tuple[int, int, tuple[int, int, int]]:
        """A stored chunk's (file id, offset, shape), or :class:`DataError`."""
        if not 0 <= timestep < self.timesteps:
            raise DataError(f"timestep {timestep} outside [0, {self.timesteps})")
        if not 0 <= species < self.species:
            raise DataError(f"species {species} outside [0, {self.species})")
        try:
            return self._chunks[chunk.chunk_id]
        except KeyError:
            raise DataError(f"unknown chunk id {chunk.chunk_id}") from None

    def chunk_range(
        self, chunk: ChunkSpec, timestep: int, species: int = 0
    ) -> tuple[float, float]:
        """``(min, max)`` of one chunk's scalars, from the manifest alone."""
        self._locate(chunk, timestep, species)
        lo, hi = self._manifest["ranges"][timestep][species][
            self._position[chunk.chunk_id]
        ]
        return lo, hi

    def chunk_field(
        self, chunk: ChunkSpec, timestep: int, species: int = 0
    ) -> np.ndarray:
        """Read one chunk's scalars from its declustered file."""
        file_id, offset, shape = self._locate(chunk, timestep, species)
        path = self.directory / _bin_name(file_id, timestep, species)
        key = path.name
        mm = self._maps.get(key)
        if mm is None:
            if not path.exists():
                raise DataError(f"missing store file {path}")
            mm = np.memmap(path, dtype=np.float32, mode="r")
            self._maps[key] = mm
        count = shape[0] * shape[1] * shape[2]
        start = offset // 4
        data = np.asarray(mm[start : start + count])
        if data.size != count:
            raise DataError(
                f"store file {path} truncated (chunk {chunk.chunk_id})"
            )
        return data.reshape(shape)

    def field(self, timestep: int, species: int = 0) -> np.ndarray:
        """Reassemble the full grid from its chunks (tests/diagnostics)."""
        full = np.zeros(self.shape, dtype=np.float32)
        for entry in self._manifest["chunks"]:
            chunk = ChunkSpec(
                entry["id"],
                tuple(entry["index"]),
                tuple(entry["start"]),
                tuple(entry["stop"]),
            )
            full[chunk.slices()] = self.chunk_field(chunk, timestep, species)
        return full

    def total_bytes(self) -> int:
        """Bytes on disk across all store files."""
        return sum(
            p.stat().st_size for p in self.directory.glob("*.bin")
        )

    def close(self) -> None:
        """Let go of every file mapping this handle opened.

        Each mapping goes away with the last array that views it, so a
        caller that has dropped its chunks leaves nothing of the store
        mapped; the handle maps again on the next read.
        """
        self._maps.clear()

    def __repr__(self) -> str:
        return (
            f"<DeclusteredStore {self.directory} shape={self.shape} "
            f"x{self.timesteps} steps x{self.species} species>"
        )
