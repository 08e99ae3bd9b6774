"""Dataset substrate: synthetic ParSSim-like fields, grid chunking,
Hilbert-curve declustering, and storage placement."""

from repro.data.chunks import (
    BYTES_PER_POINT,
    ChunkSource,
    ChunkSpec,
    partition_counts,
    partition_grid,
)
from repro.data.decluster import DataFile, decluster
from repro.data.diskstore import DeclusteredStore
from repro.data.hilbert import hilbert_index, hilbert_point, hilbert_sort_key
from repro.data.parssim import ParSSimDataset, PlumeSpec
from repro.data.spectral import SpectralDataset
from repro.data.storage import HostDisks, StorageMap

__all__ = [
    "BYTES_PER_POINT",
    "ChunkSource",
    "ChunkSpec",
    "DataFile",
    "DeclusteredStore",
    "HostDisks",
    "ParSSimDataset",
    "PlumeSpec",
    "SpectralDataset",
    "StorageMap",
    "decluster",
    "hilbert_index",
    "hilbert_point",
    "hilbert_sort_key",
    "partition_counts",
    "partition_grid",
]
