"""The Raster and Extract kernels, pinned bit for bit.

``EXPECTED`` holds SHA-256 digests of kernel outputs on one 33^3 / 128^2
scene, generated on the commit *before* the kernels were vectorised
(af0ea87: per-triangle ``dict.setdefault`` bucketing, per-triangle WPA
insertion, per-configuration marching cubes).  Every engine, the serve
cache and the benchmark's correctness gate share these kernels, so a bit
changed in all of them at once is invisible to every cross-engine
comparison — this file is the one place that would see it.

Regenerate (only when a change *means* to alter the bits) with
``PYTHONPATH=src python tests/viz/test_kernel_digests.py``.

The scene goes through ``np.exp`` (ParSSim) and ``cos``/``sin`` (the orbit
camera's eye), whose last bit may differ between SIMD builds of NumPy.
``scene`` pins those fields and that eye; where they differ from the
recorded ones the other digests say nothing and every test here is
skipped.  ``projected`` pins the screen triangles and colours that
``Camera.project_and_cull`` and ``shade_triangles`` make of the scene, and
is asserted like every kernel digest: a change to projection, culling or
shading that moves a bit fails here instead of reading as a skip.
"""

import hashlib

import numpy as np
import pytest

from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import ThreadedEngine
from repro.viz import CONFIGURATIONS, IsosurfaceApp
from repro.viz.active_pixel import ActivePixelRaster
from repro.viz.camera import Camera
from repro.viz.marching_cubes import extract_triangles
from repro.viz.profile import DatasetProfile
from repro.viz.raster import ZBuffer, rasterize_triangles
from repro.viz.shading import shade_triangles

GRID, IMAGE, ISOVALUE, TIMESTEP = 33, 128, 0.3, 1
#: Small enough that the scene's WPAs split (full, full, ..., partial).
WPA_CAPACITY = 257

EXPECTED = {
    "scene": "19b984b7f0b53bbca7bb05b1fefd1a2ef660129f1408a62b5ddb18d60c8557fb",
    "projected": "fb8d6f59b67c9ced3e449b24f094c47a3bee348ca20989507e7a9a645451d88a",
    "extract": "35b177d7fb101eb9f4790e0f32d4c4d0d37cd88fdac506f459c53faeaefa1137",
    "rasterize": "b16eed22d2ab7c7a3d54f05439af9577963102055a4040685f738cdd9797419b",
    "zbuffer": "53363b5239e9167ba848a3701fc4e5e75c6ac24b668cbf757dea5d1f009f2b88",
    "wpa.default_capacity": "9e4072352a62447561c1f4bda79ede6b12e1c956d13c9482a9cdfe9fea91ee96",
    "wpa.capacity_257": "2d4cc0b7b26f343dfbe905dec38727110aded096dd370c1f8579cdaeea98cb7c",
}
#: All four configurations and both algorithms render the same frame.
EXPECTED_FRAME = "7652aa626ce699ebbc10b4e7c9fb215db6fcadb9c158adc1213105c4d43d4f06"
FRAMES = [
    f"frame.{configuration}.{algorithm}"
    for configuration in CONFIGURATIONS
    for algorithm in ("zbuffer", "active")
]


def sha(*arrays) -> str:
    """One digest over dtype, shape and bytes of every array, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def compute_digests() -> dict:
    dataset = ParSSimDataset((GRID,) * 3, timesteps=2, species=1, seed=7)
    profile = DatasetProfile.measured(
        "s33", dataset, nchunks=8, nfiles=4, isovalue=ISOVALUE
    )
    camera = Camera.orbit(
        (GRID,) * 3, azimuth_deg=40.0, elevation_deg=25.0,
        width=IMAGE, height=IMAGE,
    )
    chunks = [chunk for data_file in profile.files for chunk in data_file.chunks]
    fields = [dataset.chunk_field(chunk, TIMESTEP, 0) for chunk in chunks]

    triangles = [
        extract_triangles(
            scalars, ISOVALUE,
            origin=tuple(float(chunk.start[axis]) for axis in (2, 1, 0)),
        )
        for chunk, scalars in zip(chunks, fields)
    ]
    soups = []  # (screen-space triangles, colours) per chunk
    for tris in triangles:
        screen, kept = camera.project_and_cull(tris)
        soups.append((screen, shade_triangles(tris)[kept]))

    out = {
        "scene": sha(*fields, np.array(camera.eye)),
        "projected": sha(*(part for soup in soups for part in soup)),
        "extract": sha(*triangles),
        "rasterize": sha(
            *(
                part
                for screen, _ in soups
                for part in rasterize_triangles(screen, IMAGE, IMAGE)
            )
        ),
    }

    zbuffer = ZBuffer(IMAGE, IMAGE)
    for screen, colors in soups:
        zbuffer.rasterize(screen, colors)
    out["zbuffer"] = sha(zbuffer.depth, zbuffer.color)

    for label, kwargs in (
        ("default_capacity", {}),
        (f"capacity_{WPA_CAPACITY}", {"capacity_entries": WPA_CAPACITY}),
    ):
        # One raster, one ``process`` call per chunk: the open WPA restarts
        # between calls, and the buffer lengths carry the capacity split.
        raster = ActivePixelRaster(IMAGE, IMAGE, **kwargs)
        buffers = [
            wpa for screen, colors in soups for wpa in raster.process(screen, colors)
        ]
        out[f"wpa.{label}"] = sha(
            np.array([wpa.entries for wpa in buffers]),
            *(a for wpa in buffers for a in (wpa.pixels, wpa.depth, wpa.color)),
        )

    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    for configuration in CONFIGURATIONS:
        for algorithm in ("zbuffer", "active"):
            app = IsosurfaceApp(
                profile, storage, width=IMAGE, height=IMAGE, algorithm=algorithm,
                timestep=TIMESTEP, dataset=dataset, isovalue=ISOVALUE, view=camera,
            )
            metrics = ThreadedEngine(
                app.graph(configuration), app.placement(configuration)
            ).run()
            out[f"frame.{configuration}.{algorithm}"] = sha(metrics.result.image)
    return out


@pytest.fixture(scope="module")
def digests():
    found = compute_digests()
    if found["scene"] != EXPECTED["scene"]:
        pytest.skip(
            "this NumPy build computes the scene itself differently "
            "(np.exp / cos last-bit); the pinned outputs do not apply"
        )
    return found


@pytest.mark.parametrize("name", [n for n in EXPECTED if n != "scene"])
def test_kernel_output_is_bit_identical_to_the_pinned_parent(digests, name):
    assert digests[name] == EXPECTED[name]


@pytest.mark.parametrize("name", FRAMES)
def test_final_frame_is_bit_identical_to_the_pinned_parent(digests, name):
    assert digests[name] == EXPECTED_FRAME


if __name__ == "__main__":
    for key, value in compute_digests().items():
        print(f'    "{key}": "{value}",')
