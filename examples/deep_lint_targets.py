#!/usr/bin/env python
"""Deep-lint targets: the four isosurface configurations, as lint inputs.

Exposes :func:`targets`, a zero-arg builder returning one ``(graph,
placement)`` pair per IsosurfaceApp configuration (R-E-Ra-M, RE-Ra-M,
R-ERa-M, RERa-M) on a small synthetic dataset profile.  CI runs the full
analyzer — including the effect-inference and protocol model-checker
passes — over all four with::

    PYTHONPATH=src:examples python -m repro.cli lint --deep \\
        --graph-module deep_lint_targets:targets

The graphs are sim-only (no real dataset on disk is needed): the deep
passes read the declared metadata and the *real* filter factories'
source, neither of which requires running anything.
"""

from repro.data import HostDisks, StorageMap
from repro.viz import CONFIGURATIONS as CONFIGS
from repro.viz import IsosurfaceApp
from repro.viz.profile import DatasetProfile

HOSTS = ("h0", "h1")


def make_app() -> IsosurfaceApp:
    """One small synthetic app shared by all four configurations."""
    profile = DatasetProfile.synthetic(
        "deep-lint",
        (16, 16, 16),
        nchunks=8,
        nfiles=4,
        timesteps=1,
        total_triangles=500,
    )
    storage = StorageMap.balanced(
        profile.files, [HostDisks(h) for h in HOSTS]
    )
    return IsosurfaceApp(profile, storage, width=32, height=32)


def targets():
    """(graph, placement) per configuration — the lint CLI's input shape."""
    app = make_app()
    return [
        (
            app.graph(config),
            app.placement(config, compute_hosts=list(HOSTS)),
        )
        for config in CONFIGS
    ]


if __name__ == "__main__":
    for (graph, placement), config in zip(targets(), CONFIGS):
        print(f"{config}: {len(graph.filters)} filters, "
              f"{len(graph.streams)} streams, "
              f"{len(placement.placed_filters())} placed")
