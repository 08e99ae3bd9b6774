#!/usr/bin/env python
"""Quickstart: render an isosurface through a real DataCutter-style pipeline.

Builds a small synthetic reactive-transport dataset, declusters it into
real binary files on disk with the Hilbert-curve algorithm, runs the
RE-Ra-M filter pipeline with two transparent Raster copies under the
Demand-Driven policy (the Read stage streams chunks from those files), and
writes the rendered image to ``quickstart.ppm``.

Run:  python examples/quickstart.py [--engine threaded|process]

``--engine process`` runs each copy in its own OS process (payloads travel
through shared memory); the rendered image is bit-identical either way.
"""

import argparse
import tempfile
from pathlib import Path

from repro.core.tracing import Tracer
from repro.data import DeclusteredStore, HostDisks, ParSSimDataset, StorageMap
from repro.engines import ProcessEngine, ThreadedEngine
from repro.serve import ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.profile import DatasetProfile


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--engine", default="threaded", choices=["threaded", "process"],
        help="run copies as threads, or as one OS process each",
    )
    args = ap.parse_args()
    engine_cls = ProcessEngine if args.engine == "process" else ThreadedEngine

    # 1. A synthetic ParSSim-like dataset: chemical plumes advecting
    #    through a 33^3 grid over 3 stored timesteps.
    dataset = ParSSimDataset((33, 33, 33), timesteps=3, species=2, seed=7)
    isovalue = 0.3
    print(f"dataset: {dataset}")

    # 2. Chunk + decluster it (Hilbert order, 8 files), materialise the
    #    declustered files on disk, and place them on one logical host.
    profile = DatasetProfile.measured(
        "quickstart", dataset, nchunks=27, nfiles=8, isovalue=isovalue
    )
    store_dir = Path(tempfile.mkdtemp(prefix="repro-quickstart-"))
    store = DeclusteredStore.write(dataset, profile, store_dir)
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    print(
        f"profile: {len(profile.chunks)} chunks in {len(profile.files)} "
        f"files ({store.total_bytes() / 1e3:.0f} kB on disk at {store_dir}),"
        f" {profile.total_triangles(0)} triangles at iso={isovalue}"
    )

    # 3. Build the RE-Ra-M pipeline (active-pixel rendering) and run it
    #    with two transparent Raster copies, Demand-Driven routing.  The
    #    Read stage streams chunk data from the on-disk store.
    app = IsosurfaceApp(
        profile,
        storage,
        width=256,
        height=256,
        algorithm="active",
        dataset=store,
        isovalue=isovalue,
    )
    graph = app.graph("RE-Ra-M")
    placement = app.placement(
        "RE-Ra-M", compute_hosts=["host0"], copies_per_host=2
    )
    tracer = Tracer()
    metrics = engine_cls(graph, placement, policy="DD", tracer=tracer).run()
    metrics.validate(graph)  # counter conservation: books must balance

    # 4. Inspect the run: stream totals, DD overhead, per-copy timeline.
    result = metrics.result
    print(f"rendered {result.active_pixels} active pixels")
    for stream in ("RE->Ra", "Ra->M"):
        buffers, nbytes = metrics.stream_totals(stream)
        print(f"stream {stream}: {buffers} buffers, {nbytes / 1e3:.1f} kB")
    print(
        f"DD overhead: {metrics.ack_messages} acks, "
        f"{metrics.ack_bytes / 1e3:.1f} kB on the wire"
    )
    print()
    print(tracer.timeline(width=48))
    out = Path(__file__).resolve().parent / "quickstart.ppm"
    out.write_bytes(ppm_bytes(result.image))
    print(f"image written to {out}")


if __name__ == "__main__":
    main()
