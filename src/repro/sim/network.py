"""Flow-level network model with max-min fair bandwidth sharing.

Hosts are attached to switches by full-duplex access links (one tx, one rx
link each, at NIC speed); switches are joined by trunk links.  A transfer is
a *flow* across the links on its route.  Whenever a flow starts or finishes,
bandwidth is re-allocated among all active flows with the classic max-min
water-filling algorithm, so a 100 Mbit access link shared by four filter
streams behaves like the real Rogue cluster's Fast Ethernet.

Per-message overhead (latency plus a fixed per-message cost) models what TCP
costs for small messages -- this is what makes Demand-Driven acknowledgment
traffic expensive on slow links (paper Section 4.4).
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import Environment, Event

__all__ = ["Link", "Network"]

_EPS_BYTES = 1e-6


class Link:
    """A unidirectional link with a fixed capacity in bytes/second."""

    __slots__ = ("name", "capacity", "bytes_carried", "messages")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link capacity must be > 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        self.bytes_carried = 0
        self.messages = 0

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity / 1e6:.1f} MB/s>"


class _Flow:
    __slots__ = ("links", "remaining", "rate", "event", "nbytes", "fixed")

    def __init__(
        self, links: tuple[Link, ...], nbytes: float, event: Event, fixed: float
    ):
        self.links = links
        self.remaining = nbytes
        self.nbytes = nbytes
        self.rate = 0.0
        self.event = event
        self.fixed = fixed  # latency + per-message overhead after the drain


class Network:
    """A collection of links, routes, and in-flight flows.

    Routes are registered explicitly with :meth:`set_route`; higher layers
    (:mod:`repro.sim.cluster`) compute them from topology.  Transfers between
    a host and itself bypass the network (loopback) and take only
    ``local_latency`` plus ``nbytes / local_bandwidth``.
    """

    def __init__(
        self,
        env: Environment,
        local_bandwidth: float = 800e6,
        local_latency: float = 5e-6,
    ):
        self.env = env
        self.local_bandwidth = local_bandwidth
        self.local_latency = local_latency
        self.links: dict[str, Link] = {}
        # (src, dst) -> (links tuple, latency seconds, per-message overhead s)
        self._routes: dict[tuple[str, str], tuple[tuple[Link, ...], float, float]] = {}
        self._flows: list[_Flow] = []
        self._last = env.now
        self._epoch = 0
        # Statistics.
        self.transfers_started = 0
        #: Transfers (and their bytes) whose arrival is scheduled: a local or
        #: zero-byte one when it starts, a remote one when its flow drains.
        self.transfers_completed = 0
        self.bytes_delivered = 0.0

    # -- topology ------------------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        """Create and register a link; names must be unique."""
        if name in self.links:
            raise ConfigurationError(f"duplicate link name {name!r}")
        link = Link(name, capacity)
        self.links[name] = link
        return link

    def set_route(
        self,
        src: str,
        dst: str,
        links: list[Link],
        latency: float,
        message_overhead: float = 0.0,
    ) -> None:
        """Register the link path and fixed costs for ``src`` -> ``dst``."""
        if latency < 0 or message_overhead < 0:
            raise ConfigurationError("latency/message_overhead must be >= 0")
        if len(set(links)) != len(links):
            raise ConfigurationError(f"route {src!r} -> {dst!r} crosses a link twice")
        self._routes[(src, dst)] = (tuple(links), latency, message_overhead)

    def route(self, src: str, dst: str) -> tuple[tuple[Link, ...], float, float]:
        """Look up the registered route for ``src`` -> ``dst``."""
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no route from {src!r} to {dst!r}") from None

    # -- transfers -------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Move ``nbytes`` from host ``src`` to host ``dst``.

        Returns an event firing when the last byte has arrived: the
        transfer's one kernel event, scheduled once its arrival time is known.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        ev = Event(self.env)
        self.transfers_started += 1
        if src == dst:
            self._arrive(ev, self.local_latency + nbytes / self.local_bandwidth, nbytes)
            return ev

        links, latency, overhead = self.route(src, dst)
        for link in links:
            link.bytes_carried += nbytes
            link.messages += 1
        fixed = latency + overhead
        if nbytes == 0:
            self._arrive(ev, fixed, 0)
            return ev
        self._settle()
        self._flows.append(_Flow(links, float(nbytes), ev, fixed))
        self._update()
        return ev

    def _arrive(self, ev: Event, delay: float, nbytes: float) -> None:
        """Count a delivered transfer; ``ev`` fires ``delay`` from now."""
        self.transfers_completed += 1
        self.bytes_delivered += nbytes
        ev._ok, ev._value = True, None
        self.env._schedule(ev, delay)

    @property
    def active_flows(self) -> int:
        """Number of flows currently moving bytes."""
        return len(self._flows)

    def current_rates(self) -> list[tuple[tuple[str, ...], float]]:
        """(link names, rate) of every active flow — for tests/diagnostics."""
        return [
            (tuple(link.name for link in flow.links), flow.rate)
            for flow in self._flows
        ]

    # -- max-min fair sharing ---------------------------------------------------
    def _settle(self) -> None:
        now = self.env.now
        dt = now - self._last
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= dt * flow.rate
        self._last = now

    def _update(self) -> None:
        """Complete drained flows, re-share bandwidth, schedule next wake."""
        finished = [f for f in self._flows if f.remaining <= _EPS_BYTES]
        if finished:
            self._flows = [f for f in self._flows if f.remaining > _EPS_BYTES]
            for flow in finished:
                self._arrive(flow.event, flow.fixed, flow.nbytes)
        self._maxmin()
        self._epoch += 1
        if not self._flows:
            return
        horizon = min(f.remaining / f.rate for f in self._flows)
        epoch = self._epoch
        timer = self.env.timeout(max(horizon, 0.0))
        timer.callbacks.append(lambda _e: self._tick(epoch))

    def _tick(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._settle()
        self._update()

    def _maxmin(self) -> None:
        """Water-filling max-min fair allocation over the active flows.

        Each round freezes the flows of the tightest link (least capacity
        left per live flow; the first in order of appearance on a tie) at
        that share, taken from every link they cross.  A route crosses a
        link once (:meth:`set_route`), so live flows are counted, not kept.
        """
        flows = self._flows
        if len(flows) < 2:
            for flow in flows:  # alone: the capacity of its tightest link
                flow.rate = min(link.capacity for link in flow.links)
            return
        members: dict[Link, list[_Flow]] = {}
        for flow in flows:
            for link in flow.links:
                members.setdefault(link, []).append(flow)
        cap_left = {link: link.capacity for link in members}
        live = {link: len(on_link) for link, on_link in members.items()}
        frozen: set[_Flow] = set()
        while len(frozen) < len(flows):
            best, best_share = None, float("inf")
            for link, count in live.items():
                if count:
                    share = cap_left[link] / count
                    if share < best_share:
                        best, best_share = link, share
            if best is None:  # pragma: no cover - a flow crossing no link
                break
            for flow in members[best]:
                if flow in frozen:
                    continue
                frozen.add(flow)
                flow.rate = best_share
                for link in flow.links:
                    live[link] -= 1
                    left = cap_left[link] - best_share
                    # Numerical guard against tiny negatives.
                    cap_left[link] = 0.0 if left < 0 else left
