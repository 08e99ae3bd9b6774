"""The isosurface pipeline's vocabulary: stages, configurations, algorithms.

The paper's decompositions (Figure 3) are the same four stages — Read,
Extract, Raster, Merge — grouped differently, and a configuration *name*
is that grouping: ``"RE-Ra-M"`` is ``(("R", "E"), ("Ra",), ("M",))``.
:func:`parse_configuration` is the one place the names are read;
:class:`~repro.viz.app.IsosurfaceApp` builds its graph from the groups,
and the CLI and ``repro serve`` list :data:`CONFIGURATIONS` as their
choices.

This module lives outside :mod:`repro.viz` on purpose: importing anything
under that package loads the NumPy kernels, and the CLI and the server
name configurations long before (and, for the server process, at a
different time than) they first build a pipeline.
"""

from __future__ import annotations

import re

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "CONFIGURATIONS",
    "ALGORITHMS",
    "parse_configuration",
    "stage_name",
    "check_algorithm",
]

#: Every contiguous grouping of R, E, Ra; Merge is never fused (it is the
#: single-copy sink whose ``result()`` the engines return).
CONFIGURATIONS = ("R-E-Ra-M", "RE-Ra-M", "R-ERa-M", "RERa-M")

#: Hidden-surface-removal algorithms of the Raster and Merge stages.
ALGORITHMS = ("zbuffer", "active")

_STAGE = re.compile("Ra|R|E|M")


def parse_configuration(name: str) -> tuple[tuple[str, ...], ...]:
    """The stage groups a configuration name spells, in pipeline order."""
    if name not in CONFIGURATIONS:
        raise ConfigurationError(
            f"unknown configuration {name!r}; choose from {CONFIGURATIONS}"
        )
    return tuple(tuple(_STAGE.findall(group)) for group in name.split("-"))


def stage_name(group: tuple[str, ...]) -> str:
    """The filter name of a stage group: ``("R", "E")`` is ``"RE"``."""
    return "".join(group)


def check_algorithm(
    algorithm: str, error: type[ReproError] = ConfigurationError
) -> None:
    """Raise ``error`` unless ``algorithm`` is one of :data:`ALGORITHMS`."""
    if algorithm not in ALGORITHMS:
        raise error(
            f"algorithm must be 'zbuffer' or 'active', got {algorithm!r}"
        )
