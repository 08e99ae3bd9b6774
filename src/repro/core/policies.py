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
output stream); engines create instances via the session's factory, one per
writer, so copies never share state.  Every stream runs the session policy:
a filter that must reach one particular consumer writes to that consumer's
own stream (the strip rasters of :mod:`repro.viz.partitioned`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

from repro.configurations import POLICIES
from repro.errors import ConfigurationError

__all__ = [
    "Router",
    "Target",
    "WriterPolicy",
    "RoundRobin",
    "WeightedRoundRobin",
    "DemandDriven",
    "PolicyFactory",
    "make_policy_factory",
]


@dataclass(eq=False, slots=True)
class Target:
    """A writer's view of one consumer copy set; its policy keeps
    ``unacked`` (:meth:`WriterPolicy.on_sent`, :meth:`WriterPolicy.on_ack`)."""

    index: int
    host: str
    copies: int
    local: bool
    unacked: int = 0


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
        one unbound instance through this hook instead of poking at
        concrete subclasses.
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

    def on_sent(self, target: Target) -> None:
        """Engine notification: a buffer was sent to ``target``."""

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
        target.unacked += 1

    def on_ack(self, target: Target) -> None:
        """Account one acknowledgment from ``target``."""
        if target.unacked <= 0:
            raise ConfigurationError(
                f"ack for target {target.host!r} with no outstanding buffers"
            )
        target.unacked -= 1


class Router:
    """One writer's routing, without I/O: acknowledgments in, a target out.

    Built from the producer's host, its consumer copy sets ``(host,
    copies)`` and a fresh policy, it is the one place a :class:`Target` is
    made; the blocking writer and the simulator drive the same object.
    """

    __slots__ = ("policy", "targets")

    def __init__(
        self, host: str, copysets: "list[tuple[str, int]]", policy: WriterPolicy
    ) -> None:
        self.policy = policy
        self.targets = [
            Target(i, h, copies, local=(h == host))
            for i, (h, copies) in enumerate(copysets)
        ]
        policy.bind(self.targets)

    def ack(self, index: int) -> None:
        """Copy set ``index`` acknowledged one buffer."""
        self.policy.on_ack(self.targets[index])

    def route(self) -> Target | None:
        """The copy set the next buffer goes to, booked as sent; ``None``
        while the policy cannot send (every DD window full)."""
        target = self.policy.select()
        if target is not None:
            self.policy.on_sent(target)
        return target


#: A callable producing a fresh policy per writer.
PolicyFactory = Callable[[], WriterPolicy]

_REGISTRY: dict[str, Callable[..., WriterPolicy]] = dict(
    zip(POLICIES, (RoundRobin, WeightedRoundRobin, DemandDriven))
)


def make_policy_factory(
    name: "str | PolicyFactory", **kwargs: object
) -> PolicyFactory:
    """Build a policy factory from a short name (``"RR"``/``"WRR"``/``"DD"``).

    Keyword arguments are forwarded to the policy constructor (e.g.
    ``make_policy_factory("DD", window=8)``).  A factory passes through
    unchanged, so an engine's ``policy`` argument may be either.
    """
    if callable(name):
        return name
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return lambda: cls(**kwargs)

