"""Filter interface: a real component and the context it runs in.

:class:`Filter` is a component in the DataCutter callback style: ``init`` /
per-buffer processing / ``flush`` at end-of-work / ``finalize``.  The real
engines call it, and ``handle`` does actual (NumPy) work and writes real
buffers downstream.  The simulated engine runs the matching cost model,
a :class:`repro.core.fuse.StageModel` built from the same parameters.
"""

from __future__ import annotations

from typing import Any

from repro.core.buffer import DataBuffer

__all__ = ["FilterContext", "Filter"]


class FilterContext:
    """What a running filter copy can see and do.

    Engines construct one per copy (per work cycle).  ``write`` routes a
    buffer to the copy's writer for the named output stream (or the only
    output stream when the filter has exactly one).  ``copy_index`` /
    ``copies_on_host`` / ``total_copies`` let copies partition source work;
    ``uow`` carries the current unit-of-work descriptor.
    """

    def __init__(
        self,
        filter_name: str,
        host: str,
        copy_index: int,
        copies_on_host: int,
        total_copies: int,
        output_streams: list[str],
        write_fn: Any,
        uow: Any = None,
    ) -> None:
        self.filter_name = filter_name
        self.host = host
        self.copy_index = copy_index
        self.copies_on_host = copies_on_host
        self.total_copies = total_copies
        self.output_streams = list(output_streams)
        self._write_fn = write_fn
        #: The current unit of work's descriptor (paper: e.g. "rendering of
        #: a simulation dataset from a particular viewing direction").
        #: ``None`` for single-UOW runs; set per cycle by ``run_cycles``.
        self.uow = uow

    def write(self, buffer: DataBuffer, stream: str | None = None) -> None:
        """Send ``buffer`` downstream on ``stream``.

        ``stream`` may be omitted when the filter has exactly one output.
        """
        if stream is None:
            if len(self.output_streams) != 1:
                raise ValueError(
                    f"filter {self.filter_name!r} has "
                    f"{len(self.output_streams)} output streams; "
                    f"write() needs an explicit stream name"
                )
            stream = self.output_streams[0]
        elif stream not in self.output_streams:
            raise ValueError(
                f"filter {self.filter_name!r} has no output stream {stream!r}"
            )
        self._write_fn(stream, buffer)


class Filter:
    """Base class for real filters (threaded engine).

    Lifecycle per unit-of-work:  ``init`` -> ``handle`` per input buffer (in
    arrival order, any input stream) -> ``flush`` once every input stream has
    delivered end-of-work -> ``finalize``.

    Subclasses override the hooks they need; a pure transformer only needs
    ``handle``, an accumulator (z-buffer raster, merge) also uses ``flush``.
    """

    def init(self, ctx: FilterContext) -> None:
        """Pre-allocate per-UOW resources (paper: the init callback)."""

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer; write outputs via ``ctx.write``."""
        raise NotImplementedError

    def flush(self, ctx: FilterContext) -> None:
        """Called once after end-of-work, before ``finalize``."""

    def finalize(self, ctx: FilterContext) -> None:
        """Release per-UOW resources (paper: the finalize callback)."""
