#!/usr/bin/env python
"""Deep-lint targets: the four isosurface configurations and the strip
pipeline, as lint inputs.

Exposes :func:`targets`, a zero-arg builder returning one ``(graph,
placement)`` pair per IsosurfaceApp configuration (R-E-Ra-M, RE-Ra-M,
R-ERa-M, RERa-M) on a small synthetic dataset profile, plus the
image-partitioned strip pipeline (two strip-owning raster sinks, each
fed by its own stream, no Merge).  CI runs the engine gate over all five — the pipeline
verifier every engine constructor runs — with::

    PYTHONPATH=src:examples python -m repro.cli lint \\
        --graph-module deep_lint_targets:targets

The graphs are sim-only (no real dataset on disk is needed): the gate
reads the declared metadata and runs nothing.
"""

from repro.core.placement import Placement
from repro.data import HostDisks, StorageMap
from repro.viz import CONFIGURATIONS as CONFIGS
from repro.viz import IsosurfaceApp
from repro.viz.partitioned import build_partitioned_graph
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


def strip_target():
    """The strip pipeline: one RE copy feeding a Ra<o> sink per host."""
    app = make_app()
    storage = StorageMap.balanced(app.profile.files, [HostDisks(HOSTS[0])])
    graph = build_partitioned_graph(
        app.profile, storage, 0, app.width, app.height, regions=len(HOSTS)
    )
    placement = Placement().place("RE", [HOSTS[0]])
    for owner, host in enumerate(HOSTS):
        placement.place(f"Ra{owner}", [host])
    return graph, placement


def targets():
    """(graph, placement) per target — the lint CLI's input shape."""
    app = make_app()
    return [
        (
            app.graph(config),
            app.placement(config, compute_hosts=list(HOSTS)),
        )
        for config in CONFIGS
    ] + [strip_target()]


if __name__ == "__main__":
    for (graph, placement), name in zip(targets(), (*CONFIGS, "strips")):
        print(f"{name}: {len(graph.filters)} filters, "
              f"{len(graph.streams)} streams, "
              f"{len(placement.placed_filters())} placed")
