"""``fuse``: several stage definitions run as one filter, or one cost model.

The paper's decompositions (RERa-M, RE-Ra-M, R-ERa-M) are the same stages
grouped differently.  A stage is written once — a real
:class:`~repro.core.filter.Filter`, and a :class:`StageModel` pricing it —
and a grouping is built with :func:`fuse` / :func:`fuse_models` instead
of a hand-written class per group.

The fusion rule is the same on both sides: *inside* a fused stage the
parts hand each other whole logical units (a chunk's voxels, a chunk's
triangles) with no stream in between; only what the last part emits
crosses a stream, so only there is it cut into stream buffers, counted
and routed.

- Real side: part ``i`` gets a context whose ``write`` *is* part
  ``i + 1``'s ``handle``; the last part writes to the engine's context.
  ``init`` / ``flush`` / ``finalize`` are forwarded in part order, so what
  a part emits at end-of-work is handled by its successor before that
  successor flushes.
- Simulated side: a running cost is threaded through the parts, each
  adding its own terms one by one for the unit its predecessor emitted
  (so the floating-point association is stage order, whatever the
  grouping); :meth:`StageModel.packets` of the last part cuts the final
  unit into stream buffers.  Memory is the parts' accumulators plus the
  buffers of the *external* streams.

What ``fuse`` cannot express, on purpose: an inner part has exactly one
output (no named or multiple streams inside a stage); a fused filter has
no ``result()``, so a result-producing sink is never fused; and on the
simulated side only the last part may emit at end-of-work (an inner
accumulator is priced but its flush output is not re-priced downstream).
``fuse`` of one part is that part.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.core.buffer import DataBuffer
from repro.core.filter import Filter, FilterContext, SimFilter, SimSource, SourceItem
from repro.errors import ConfigurationError

__all__ = [
    "fuse",
    "fuse_models",
    "FusedFilter",
    "StageModel",
    "FusedModel",
    "Unit",
    "SourceUnit",
]

#: Tags of one logical unit flowing between two stages (``{"voxels": n,
#: "triangles": t}``, ``{"entries": e}``, ...).
Unit = Mapping[str, Any]

#: One unit of source work: ``(read_bytes, disk_index, sequential, unit)``.
SourceUnit = tuple[int, int, bool, Unit]


# -- real side ----------------------------------------------------------------
def fuse(*parts: Filter) -> Filter:
    """One filter running ``parts`` as a chain inside a single copy."""
    if not parts:
        raise ConfigurationError("fuse() needs at least one part")
    return parts[0] if len(parts) == 1 else FusedFilter(parts)


def _handoff(
    outer: FilterContext, successor: Filter, successor_ctx: FilterContext
) -> FilterContext:
    """``outer``'s identity, but ``write`` is ``successor.handle``."""

    def write_fn(_stream: str, buffer: DataBuffer) -> None:
        successor.handle(successor_ctx, buffer)

    return FilterContext(
        filter_name=outer.filter_name,
        host=outer.host,
        copy_index=outer.copy_index,
        copies_on_host=outer.copies_on_host,
        total_copies=outer.total_copies,
        output_streams=["fused"],
        write_fn=write_fn,
        uow=outer.uow,
    )


def _chain(parts: Sequence[Filter], ctx: FilterContext) -> list[FilterContext]:
    """One context per part: the last is ``ctx``, the others hand off."""
    contexts = [ctx]
    for successor in reversed(parts[1:]):
        contexts.append(_handoff(ctx, successor, contexts[-1]))
    contexts.reverse()
    return contexts


class FusedFilter(Filter):
    """``parts`` chained in one copy (see the module docstring).

    ``parts`` is public: analyses that want a fused stage's effects or
    state walk it.
    """

    def __init__(self, parts: Sequence[Filter]) -> None:
        self.parts = tuple(parts)

    def init(self, ctx: FilterContext) -> None:
        """Per-unit-of-work set-up (see Filter.init)."""
        self._contexts = _chain(self.parts, ctx)
        for part, inner in zip(self.parts, self._contexts):
            part.init(inner)

    def handle(self, ctx: FilterContext, buffer: DataBuffer) -> None:
        """Process one input buffer (see Filter.handle)."""
        self.parts[0].handle(self._contexts[0], buffer)

    def flush(self, ctx: FilterContext) -> None:
        """End-of-work processing (see Filter.flush)."""
        for part, inner in zip(self.parts, self._contexts):
            part.flush(inner)

    def finalize(self, ctx: FilterContext) -> None:
        """Release per-unit-of-work resources (see Filter.finalize)."""
        for part, inner in zip(self.parts, self._contexts):
            part.finalize(inner)
        del self._contexts


# -- simulated side -----------------------------------------------------------
class StageModel(SimFilter, SimSource):
    """A cost model written over logical units, usable alone or fused.

    Subclasses define the *part contract* — :meth:`step`,
    :meth:`flush_step`, :meth:`packets`, :meth:`accumulator_bytes` and,
    for a source, :meth:`units` — and get the engine-facing
    :class:`SimFilter` / :class:`SimSource` methods from it, so a stage
    run alone and the same stage inside :func:`fuse_models` are priced by
    the same lines.
    """

    #: True for a stage that reads storage (defines :meth:`units`).
    source = False
    #: Stream-buffer sizes :meth:`memory_bytes` counts while the stream
    #: on that side is external to the (fused) stage.
    input_buffer_bytes = 0
    output_buffer_bytes = 0
    #: Set by :meth:`start`: a stage placed as a sink emits nothing.
    _sink = False

    # -- the part contract ---------------------------------------------------
    def units(self, ctx: FilterContext) -> Iterator[SourceUnit]:
        """The source work of the copy described by ``ctx`` (sources only)."""
        raise NotImplementedError

    def step(self, unit: Unit, cost: float) -> tuple[float, Unit | None]:
        """Process ``unit``.

        Returns the running ``cost`` with this stage's CPU cost terms added
        to it *one at a time* (summing them first would associate the
        floats differently in a fused stage than across separate ones),
        and the logical unit emitted in response (or ``None``).
        """
        raise NotImplementedError

    def flush_step(self, cost: float) -> tuple[float, Unit | None]:
        """End-of-work: ``cost`` plus its terms, and the unit emitted."""
        return cost, None

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """Cut one *emitted* unit into this stage's output stream buffers."""
        return []

    def accumulator_bytes(self) -> int:
        """Resident state of one copy, stream buffers excluded."""
        return 0

    # -- SimFilter / SimSource, derived --------------------------------------
    def start(self, ctx: FilterContext) -> None:
        """Per-copy initialisation (see SimFilter.start)."""
        self._sink = not ctx.output_streams

    def _emit(self, unit: Unit | None) -> list[DataBuffer]:
        if unit is None or self._sink:
            return []
        return self.packets(unit)

    def cost(self, buffer: DataBuffer) -> float:
        """CPU cost of processing ``buffer`` (reference core-seconds)."""
        return self.step(buffer.tags, 0.0)[0]

    def react(self, buffer: DataBuffer) -> list[DataBuffer]:
        """Buffers emitted in response to ``buffer``."""
        return self._emit(self.step(buffer.tags, 0.0)[1])

    def flush_cost(self) -> float:
        """CPU cost of end-of-work processing."""
        return self.flush_step(0.0)[0]

    def flush_outputs(self) -> list[DataBuffer]:
        """Buffers emitted at end-of-work."""
        return self._emit(self.flush_step(0.0)[1])

    def items(self, ctx: FilterContext) -> Iterator[SourceItem]:
        """Yield this copy's source work items (see SimSource)."""
        for read_bytes, disk_index, sequential, unit in self.units(ctx):
            cpu, emitted = self.step(unit, 0.0)
            yield SourceItem(
                read_bytes=read_bytes,
                disk_index=disk_index,
                cpu=cpu,
                sequential=sequential,
                outputs=self._emit(emitted),
            )

    def memory_bytes(self) -> int:
        """Estimated resident memory of one copy.

        Accumulators plus the buffers of the external streams.  A source
        reports its accumulators only — the models this contract replaced
        did (R and RE reported 0), and the memory audit is pinned to them.
        """
        if self.source:
            return self.accumulator_bytes()
        return (
            self.accumulator_bytes()
            + self.input_buffer_bytes
            + self.output_buffer_bytes
        )


def fuse_models(*parts: StageModel) -> StageModel:
    """One cost model pricing ``parts`` as a single fused stage."""
    if not parts:
        raise ConfigurationError("fuse_models() needs at least one part")
    return parts[0] if len(parts) == 1 else FusedModel(parts)


class FusedModel(StageModel):
    """``parts`` priced as one stage (see the module docstring)."""

    def __init__(self, parts: Sequence[StageModel]) -> None:
        self.parts = tuple(parts)
        self.source = parts[0].source
        self.input_buffer_bytes = parts[0].input_buffer_bytes
        self.output_buffer_bytes = parts[-1].output_buffer_bytes

    def units(self, ctx: FilterContext) -> Iterator[SourceUnit]:
        """The first part's source work (see StageModel.units)."""
        return self.parts[0].units(ctx)

    def step(self, unit: Unit, cost: float) -> tuple[float, Unit | None]:
        """Every part in turn, each fed its predecessor's emitted unit."""
        flowing: Unit | None = unit
        for part in self.parts:
            if flowing is None:
                break
            cost, flowing = part.step(flowing, cost)
        return cost, flowing

    def flush_step(self, cost: float) -> tuple[float, Unit | None]:
        """Every part's end-of-work terms; the last part's unit."""
        emitted: Unit | None = None
        for part in self.parts:
            cost, emitted = part.flush_step(cost)
        return cost, emitted

    def packets(self, unit: Unit) -> list[DataBuffer]:
        """The last part's packetisation: the only stream boundary."""
        return self.parts[-1].packets(unit)

    def accumulator_bytes(self) -> int:
        """The parts' accumulators."""
        return sum(part.accumulator_bytes() for part in self.parts)
