"""Placement: mapping logical filters to hosts and copy counts.

The application developer decides (paper Section 2) the decomposition into
filters, where each filter runs, and how many transparent copies to execute.
A :class:`Placement` records, per filter, an ordered list of
:class:`CopySetSpec` — one per host running copies of that filter.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import PlacementError

__all__ = ["CopySetSpec", "Placement"]


@dataclass(frozen=True)
class CopySetSpec:
    """All transparent copies of one filter on one host."""

    host: str
    copies: int = 1

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise PlacementError(
                f"copy set on {self.host!r} must have >= 1 copies, "
                f"got {self.copies}"
            )


class Placement:
    """Filter-to-host mapping with transparent-copy counts.

    Example::

        p = Placement()
        p.place("raster", [("blue0", 2), ("blue1", 2)])
        p.place("merge", [("blue0", 1)])
    """

    def __init__(self) -> None:
        self._map: dict[str, list[CopySetSpec]] = {}

    def place(
        self,
        filter_name: str,
        copysets: Iterable[tuple[str, int] | CopySetSpec | str],
    ) -> "Placement":
        """Assign copy sets to ``filter_name``.

        Each entry may be a host name (one copy), a ``(host, copies)`` tuple,
        or a :class:`CopySetSpec`.  A host may appear at most once per filter.
        Returns ``self`` for chaining.
        """
        specs: list[CopySetSpec] = []
        for entry in copysets:
            if isinstance(entry, CopySetSpec):
                specs.append(entry)
            elif isinstance(entry, str):
                specs.append(CopySetSpec(entry, 1))
            else:
                host, copies = entry
                specs.append(CopySetSpec(host, copies))
        hosts = [s.host for s in specs]
        if len(set(hosts)) != len(hosts):
            raise PlacementError(
                f"filter {filter_name!r}: a host appears in multiple copy sets"
            )
        if not specs:
            raise PlacementError(f"filter {filter_name!r}: empty placement")
        self._map[filter_name] = specs
        return self

    def spread(
        self, filter_name: str, hosts: Sequence[str], copies_per_host: int = 1
    ) -> "Placement":
        """Place ``copies_per_host`` copies of the filter on every host."""
        return self.place(filter_name, [(h, copies_per_host) for h in hosts])

    # -- queries ---------------------------------------------------------------
    def copysets(self, filter_name: str) -> list[CopySetSpec]:
        """The copy sets of one filter (raises if unplaced)."""
        try:
            return self._map[filter_name]
        except KeyError:
            raise PlacementError(f"filter {filter_name!r} is not placed") from None

    def hosts_of(self, filter_name: str) -> list[str]:
        """Hosts running copies of ``filter_name``, in placement order."""
        return [cs.host for cs in self.copysets(filter_name)]

    def total_copies(self, filter_name: str) -> int:
        """Total number of transparent copies of ``filter_name``."""
        return sum(cs.copies for cs in self.copysets(filter_name))

    def placed_filters(self) -> list[str]:
        """Names of all placed filters."""
        return list(self._map)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{'+'.join(f'{cs.host}x{cs.copies}' for cs in specs)}"
            for name, specs in self._map.items()
        )
        return f"<Placement {parts}>"
