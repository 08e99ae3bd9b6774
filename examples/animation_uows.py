#!/usr/bin/env python
"""Units of work: rendering an animation, one UOW per viewing direction.

The paper defines a unit-of-work as "rendering of a simulation dataset from
a particular viewing direction", with every filter running its
init/process/finalize cycle per UOW on a *persistent* instance.  This
example uses exactly that protocol — ``ThreadedEngine.run_cycles`` with one
``{"camera": ...}`` descriptor per frame — to render a ring of camera
angles and write the frames as PPM files.

Run:  python examples/animation_uows.py
"""

import math
from pathlib import Path

import numpy as np

from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import ThreadedEngine
from repro.serve import ppm_bytes
from repro.viz import Camera, IsosurfaceApp
from repro.viz.profile import DatasetProfile

FRAMES = 6
SIZE = 128


def orbit_camera(shape, frame: int, width: int, height: int) -> Camera:
    """A camera orbiting the grid centre in the horizontal plane."""
    nz, ny, nx = shape
    angle = 2.0 * math.pi * frame / FRAMES
    direction = (math.cos(angle), math.sin(angle), 0.6)
    return Camera.fit_grid(shape, width=width, height=height, direction=direction)


def main() -> None:
    dataset = ParSSimDataset((25, 25, 25), timesteps=1, seed=13)
    isovalue = 0.3
    profile = DatasetProfile.measured(
        "anim", dataset, nchunks=8, nfiles=4, isovalue=isovalue
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    out_dir = Path(__file__).resolve().parent
    print(f"rendering {FRAMES} viewing directions "
          f"({profile.total_triangles(0)} triangles each)...")

    app = IsosurfaceApp(
        profile, storage, width=SIZE, height=SIZE, algorithm="active",
        dataset=dataset, isovalue=isovalue,
    )
    graph = app.graph("RE-Ra-M")
    placement = app.placement("RE-Ra-M", copies_per_host=2)
    engine = ThreadedEngine(graph, placement, policy="DD")
    uows = [
        {"camera": orbit_camera(profile.grid_shape, frame, SIZE, SIZE)}
        for frame in range(FRAMES)
    ]
    runs = engine.run_cycles(uows)  # one work cycle per viewing direction
    for frame, metrics in enumerate(runs):
        image = metrics.result.image
        path = out_dir / f"frame_{frame:02d}.ppm"
        path.write_bytes(ppm_bytes(image))
        occupancy = np.count_nonzero(image.any(axis=2)) / (SIZE * SIZE)
        print(f"  frame {frame}: {metrics.result.active_pixels} active "
              f"pixels ({occupancy:.1%} of frame) -> {path.name}")
    print("done; view the frames with any PPM-capable viewer")


if __name__ == "__main__":
    main()
