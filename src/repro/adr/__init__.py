"""Active Data Repository baseline: static partitioning + SPMD z-buffer
rendering with overlapped asynchronous I/O (paper Section 4.2)."""

from repro.adr.partition import weighted_static_partition
from repro.adr.graph import ADRResult, ADRRuntime

__all__ = ["ADRResult", "ADRRuntime", "weighted_static_partition"]
