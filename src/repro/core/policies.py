"""Writer policies: how a producer copy distributes buffers among copy sets.

When the logical consumer of a stream is transparently copied, every
producer copy owns a *writer* that picks, per buffer, which consumer copy
set receives it (paper Section 2, Figure 1).  Three policies are studied:

- **Round Robin (RR)** — cyclic over copy sets, one buffer per host per turn.
- **Weighted Round Robin (WRR)** — cyclic, with each host appearing once per
  copy it runs (buffers sent linearly proportional to copies per host).
- **Demand Driven (DD)** — a sliding-window scheme: the consumer acknowledges
  each buffer when it starts processing it; the producer sends to the copy
  set with the fewest unacknowledged buffers, preferring a co-located copy
  set on ties.  When every copy set has a full window the writer blocks
  until an acknowledgment returns.

A policy instance belongs to exactly one writer (one producer copy, one
output stream); engines create instances via a factory so copies never share
state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from repro.configurations import POLICIES
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.graph import FilterGraph

__all__ = [
    "Target",
    "WriterPolicy",
    "RoundRobin",
    "WeightedRoundRobin",
    "DemandDriven",
    "TileRouted",
    "PolicyFactory",
    "make_policy_factory",
    "stream_policies",
]


class Target:
    """A writer's view of one consumer copy set.

    ``unacked`` is maintained by the policy via :meth:`WriterPolicy.on_sent`
    and :meth:`WriterPolicy.on_ack`; ``sent`` counts all buffers routed to
    this copy set by the owning writer.
    """

    __slots__ = ("index", "host", "copies", "local", "unacked", "sent")

    def __init__(self, index: int, host: str, copies: int, local: bool) -> None:
        self.index = index
        self.host = host
        self.copies = copies
        self.local = local
        self.unacked = 0
        self.sent = 0

    def __repr__(self) -> str:
        return (
            f"<Target {self.index} host={self.host} copies={self.copies} "
            f"unacked={self.unacked}>"
        )


class WriterPolicy(ABC):
    """Per-writer buffer routing decision logic."""

    #: True if the engine must deliver consumer acknowledgments to this
    #: policy (Demand Driven needs them).
    needs_ack: bool = False

    def __init__(self) -> None:
        self.targets: list[Target] = []

    def bind(self, targets: list[Target]) -> None:
        """Attach the consumer copy sets this writer can route to."""
        if not targets:
            raise ConfigurationError("writer bound with no targets")
        self.targets = list(targets)

    def describe(self) -> dict[str, object]:
        """Static self-description for the analysis layer and tracing.

        Returns the policy class name, whether it consumes consumer
        acknowledgments, and its sliding-window size (``None`` for
        unwindowed policies).  :func:`repro.analysis.verify_flow` probes
        one unbound instance per stream through this hook instead of
        poking at concrete subclasses.
        """
        window = getattr(self, "window", None)
        return {
            "name": type(self).__name__,
            "needs_ack": self.needs_ack,
            "window": window if isinstance(window, int) else None,
        }

    @abstractmethod
    def select(self) -> Target | None:
        """Pick the destination for the next buffer.

        Returns ``None`` when the policy cannot send right now (DD with all
        windows full); the engine must wait for an acknowledgment and retry.
        """

    def route(self, tags: Mapping[str, Any] | None = None) -> Target | None:
        """Pick the destination for the next buffer, given its tags.

        Engines call this (not :meth:`select`) on every send, passing the
        outgoing buffer's tag dictionary.  The default implementation
        ignores the tags and defers to :meth:`select`; content-routed
        policies (:class:`TileRouted`) override it to read the routing key
        from the tags.  ``None`` means "cannot send right now", exactly as
        for :meth:`select`.
        """
        return self.select()

    def on_sent(self, target: Target) -> None:
        """Engine notification: a buffer was sent to ``target``."""
        target.sent += 1

    def on_ack(self, target: Target) -> None:
        """Engine notification: consumer acknowledged one buffer."""


class RoundRobin(WriterPolicy):
    """Cyclic distribution: one buffer per copy set per turn."""

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select(self) -> Target | None:
        """Pick the destination copy set for the next buffer."""
        target = self.targets[self._next % len(self.targets)]
        self._next += 1
        return target


class WeightedRoundRobin(WriterPolicy):
    """Cyclic distribution weighted by copies per host.

    The cycle interleaves hosts (``A B A`` for A:2 copies, B:1) rather than
    bursting (``A A B``), which keeps short-term load smooth while preserving
    the linear proportionality the paper specifies.
    """

    def __init__(self) -> None:
        super().__init__()
        self._cycle: list[Target] = []
        self._next = 0

    def bind(self, targets: list[Target]) -> None:
        """Attach the consumer copy sets and precompute the cycle.

        Rebinding restarts the cycle: the cursor always points into the
        *current* cycle, never at a stale offset from a previous target set.
        """
        super().bind(targets)
        max_copies = max(t.copies for t in self.targets)
        self._cycle = [
            t for round_ in range(max_copies) for t in self.targets if t.copies > round_
        ]
        self._next = 0

    def select(self) -> Target | None:
        """Pick the destination copy set for the next buffer."""
        target = self._cycle[self._next % len(self._cycle)]
        self._next += 1
        return target


class DemandDriven(WriterPolicy):
    """Least-unacknowledged-buffers routing with a sliding window.

    Parameters
    ----------
    window:
        Maximum unacknowledged buffers per copy set.  Buffers are admitted to
        a copy set only while its window has room; with every window full the
        writer blocks.  The paper describes "a sliding window mechanism based
        on buffer consumption rate"; the default of 4 keeps enough buffers in
        flight to cover ack latency on a fast LAN without flooding slow
        consumers.
    prefer_local:
        Break ties in favour of a co-located copy set (paper: "In the event
        of a tie, any local colocated copies will be chosen").
    """

    needs_ack = True

    def __init__(self, window: int = 4, prefer_local: bool = True) -> None:
        super().__init__()
        if window < 1:
            raise ConfigurationError(f"DD window must be >= 1, got {window}")
        self.window = window
        self.prefer_local = prefer_local

    def select(self) -> Target | None:
        """Pick the destination copy set for the next buffer."""
        best: Target | None = None
        for target in self.targets:
            if target.unacked >= self.window:
                continue
            if best is None or target.unacked < best.unacked:
                best = target
            elif (
                self.prefer_local
                and target.unacked == best.unacked
                and target.local
                and not best.local
            ):
                best = target
        return best

    def on_sent(self, target: Target) -> None:
        """Account one buffer sent to ``target``."""
        super().on_sent(target)
        target.unacked += 1

    def on_ack(self, target: Target) -> None:
        """Account one acknowledgment from ``target``."""
        if target.unacked <= 0:
            raise ConfigurationError(
                f"ack for target {target.host!r} with no outstanding buffers"
            )
        target.unacked -= 1


class TileRouted(WriterPolicy):
    """Content routing into a tile-mapped consumer (the strip rasters).

    Every outgoing buffer must carry an integer owner index under the
    ``"tile_owner"`` tag; the buffer is delivered to the consumer copy set
    at that index, in placement order.  Producers split their output per
    tile before writing, so each buffer lands on exactly the copy owning
    its tile — the routing decision is a table lookup, never
    load-dependent, and needs no acknowledgments.

    The owner index keys the consumer's *copy sets*: a tile-routed
    consumer must run its copies as one single-copy set per owner
    (verifier rule ``Z403``), because copies within one set share a queue
    and any of them could dequeue a buffer meant for a sibling.  Engines
    never take it as a session policy: :func:`stream_policies` puts it on
    exactly the streams into tile-mapped consumers.
    """

    tag = "tile_owner"

    def select(self) -> Target | None:
        """Unavailable: tile routing needs the buffer's tags (use route)."""
        raise ConfigurationError(
            "TileRouted cannot pick a destination without buffer tags; "
            "engines must call route(tags)"
        )

    def route(self, tags: Mapping[str, Any] | None = None) -> Target | None:
        """Deliver to the copy set owning the buffer's tile."""
        owner = tags.get(self.tag) if tags else None
        if not isinstance(owner, int) or isinstance(owner, bool):
            raise ConfigurationError(
                f"TileRouted buffer lacks an integer {self.tag!r} tag "
                f"(got {owner!r}); split producer output per tile and tag "
                f"each buffer with its owner index"
            )
        if not 0 <= owner < len(self.targets):
            raise ConfigurationError(
                f"tile owner {owner} out of range: the consumer has "
                f"{len(self.targets)} copy sets"
            )
        return self.targets[owner]


#: A callable producing a fresh policy per writer.
PolicyFactory = Callable[[], WriterPolicy]

_REGISTRY: dict[str, Callable[..., WriterPolicy]] = dict(
    zip(POLICIES, (RoundRobin, WeightedRoundRobin, DemandDriven))
)


def make_policy_factory(name: str, **kwargs: object) -> PolicyFactory:
    """Build a policy factory from a short name (``"RR"``/``"WRR"``/``"DD"``).

    Keyword arguments are forwarded to the policy constructor (e.g.
    ``make_policy_factory("DD", window=8)``).
    """
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return lambda: cls(**kwargs)


def stream_policies(
    graph: "FilterGraph", policy: "str | PolicyFactory"
) -> Callable[[str], PolicyFactory]:
    """Resolve the writer-policy factory of every stream of ``graph``.

    A stream into a consumer that declares a ``tile_map`` is tile-routed
    (:class:`TileRouted`): the consumer's copy sets own the tiles, so the
    owner of a buffer's tile is the copy that receives it.  Every other
    stream runs the session ``policy`` (a registry name or a factory).
    The table is built once, here; the returned lookup is what engines
    and the analyser call per stream.  A session policy that is itself
    tile-routed is refused: it would route streams whose consumers own
    no tiles.
    """
    session = policy if callable(policy) else make_policy_factory(policy)
    if isinstance(session(), TileRouted):
        raise ConfigurationError(
            "TileRouted is not a session policy: streams into a consumer "
            "with a tile_map are tile-routed already; pass RR, WRR or DD"
        )
    routed: dict[str, PolicyFactory] = {
        stream.name: TileRouted
        for stream in graph.streams.values()
        if getattr(graph.filters.get(stream.dst), "tile_map", None) is not None
    }

    def policy_for(stream: str) -> PolicyFactory:
        return routed.get(stream, session)

    return policy_for
