"""Filter graphs: the logical processing structure of an application.

A :class:`FilterGraph` is a DAG of named filters joined by logical streams.
It carries *factories*, not instances: each execution engine instantiates
one object per transparent copy from the registered factory.  Two factory
slots exist per filter:

- ``factory`` builds a real :class:`repro.core.filter.Filter` (threaded
  engine, trace-driven runs);
- ``sim_factory`` builds a :class:`repro.core.fuse.StageModel` cost/behaviour
  model (simulated engine).

An application can register either or both.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import GraphError

__all__ = ["FilterSpec", "StreamSpec", "FilterGraph"]


@dataclass
class FilterSpec:
    """One logical filter in the graph.

    Beyond the factories, a spec may carry *static metadata* the analysis
    layer (:mod:`repro.analysis`) verifies before any engine runs:

    ``phase_synchronised``
        The filter accumulates and emits only at the end-of-work phase
        boundary (z-buffer raster/merge style); the verifier flags such
        filters behind unsynchronised fan-in (rule ``Z401``).
    ``effects``
        Declared effects class of the filter code: one of ``"pure"``,
        ``"stateful"``, ``"io"`` or ``"nondeterministic"``.  The
        memoisation certifier (:mod:`repro.analysis.effects`) trusts it:
        only a filter declared ``"pure"`` may have its output cached.
        The replay witness in ``tests/analysis/test_replay_witness.py``
        runs every shipped stage to hold the declarations to the code.
    """

    name: str
    factory: Callable[[], Any] | None = None
    sim_factory: Callable[[], Any] | None = None
    is_source: bool = False
    inputs: list["StreamSpec"] = field(default_factory=list)
    outputs: list["StreamSpec"] = field(default_factory=list)
    phase_synchronised: bool = False
    effects: str | None = None

    def __repr__(self) -> str:
        return f"<FilterSpec {self.name}>"


@dataclass
class StreamSpec:
    """One logical stream: a unidirectional producer->consumer pipe."""

    name: str
    src: str
    dst: str

    def __repr__(self) -> str:
        return f"<StreamSpec {self.name}: {self.src}->{self.dst}>"


class FilterGraph:
    """A DAG of filters and streams.

    Example::

        g = FilterGraph()
        g.add_filter("read", sim_factory=make_read, is_source=True)
        g.add_filter("extract", sim_factory=make_extract)
        g.connect("read", "extract")
    """

    def __init__(self) -> None:
        self.filters: dict[str, FilterSpec] = {}
        self.streams: dict[str, StreamSpec] = {}

    # -- construction --------------------------------------------------------
    def add_filter(
        self,
        name: str,
        factory: Callable[[], Any] | None = None,
        sim_factory: Callable[[], Any] | None = None,
        is_source: bool = False,
        phase_synchronised: bool = False,
        effects: str | None = None,
    ) -> FilterSpec:
        """Register a logical filter.  Names must be unique.

        The trailing keyword arguments are optional static metadata for
        the analysis layer (see :class:`FilterSpec`).
        """
        if not name:
            raise GraphError("filter name must be non-empty")
        if name in self.filters:
            raise GraphError(f"duplicate filter {name!r}")
        if effects is not None:
            from repro.analysis.effects import EFFECT_NAMES

            if effects not in EFFECT_NAMES:
                raise GraphError(
                    f"filter {name!r} declares unknown effects class "
                    f"{effects!r}; expected one of {sorted(EFFECT_NAMES)}"
                )
        spec = FilterSpec(
            name=name,
            factory=factory,
            sim_factory=sim_factory,
            is_source=is_source,
            phase_synchronised=phase_synchronised,
            effects=effects,
        )
        self.filters[name] = spec
        return spec

    def connect(self, src: str, dst: str, name: str | None = None) -> StreamSpec:
        """Add a logical stream from filter ``src`` to filter ``dst``."""
        for endpoint in (src, dst):
            if endpoint not in self.filters:
                raise GraphError(f"unknown filter {endpoint!r}")
        if src == dst:
            raise GraphError(f"self-loop on filter {src!r}")
        name = name or f"{src}->{dst}"
        if name in self.streams:
            raise GraphError(f"duplicate stream {name!r}")
        spec = StreamSpec(name=name, src=src, dst=dst)
        self.streams[name] = spec
        self.filters[src].outputs.append(spec)
        self.filters[dst].inputs.append(spec)
        return spec

    # -- queries ---------------------------------------------------------------
    def sources(self) -> list[FilterSpec]:
        """Filters with no input streams (data producers)."""
        return [f for f in self.filters.values() if not f.inputs]

    def sinks(self) -> list[FilterSpec]:
        """Filters with no output streams (result consumers)."""
        return [f for f in self.filters.values() if not f.outputs]

    def adjacency(self, reverse: bool = False) -> dict[str, list[str]]:
        """Each filter's consumers (``reverse``: its producers), one per stream.

        The one definition of the graph's structure, behind every query
        below: a stream counts only if both its endpoints exist (``G106``).
        """
        out: dict[str, list[str]] = {name: [] for name in self.filters}
        for stream in self.streams.values():
            src, dst = (stream.dst, stream.src) if reverse else (stream.src, stream.dst)
            if src in out and dst in out:
                out[src].append(dst)
        return out

    def topological_order(self) -> list[str]:
        """Filter names in a producer-before-consumer order.

        Kahn's algorithm seeded in filter-insertion order.  Raises
        :class:`GraphError` on a cyclic graph; use
        :func:`repro.analysis.verify_graph` for the structural rule set.
        """
        consumers = self.adjacency()
        waiting = {name: len(srcs) for name, srcs in self.adjacency(reverse=True).items()}
        order = [name for name, count in waiting.items() if not count]
        for name in order:  # grows as filters become ready
            for dst in consumers[name]:
                waiting[dst] -= 1
                if not waiting[dst]:
                    order.append(dst)
        if len(order) < len(consumers):
            raise GraphError(f"graph has a cycle: {self.find_cycle()}")
        return order

    def find_cycle(self) -> list[tuple[str, str]]:
        """One cycle's ``(src, dst)`` edges, closing on its first filter; ``[]`` if acyclic."""
        consumers = self.adjacency()
        finished: set[str] = set()
        for root in consumers:
            path, pending = [root], [iter(consumers[root])]
            while path:
                dst = next(pending[-1], None)
                if dst is None:
                    finished.add(path.pop())
                    pending.pop()
                elif dst in path:
                    walk = path[path.index(dst):] + [dst]
                    return list(zip(walk, walk[1:]))
                elif dst not in finished:
                    path.append(dst)
                    pending.append(iter(consumers[dst]))
        return []

    def upstream_of(self, name: str) -> set[str]:
        """All filters that (transitively) feed ``name``."""
        return self._reachable(name, reverse=True)

    def downstream_of(self, name: str) -> set[str]:
        """All filters that ``name`` (transitively) feeds."""
        return self._reachable(name, reverse=False)

    def _reachable(self, name: str, reverse: bool) -> set[str]:
        if name not in self.filters:
            raise GraphError(f"unknown filter {name!r}")
        adjacency = self.adjacency(reverse)
        seen, stack = {name}, [name]
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen - {name}

    def __repr__(self) -> str:
        return (
            f"<FilterGraph {len(self.filters)} filters, "
            f"{len(self.streams)} streams>"
        )
