"""Adapters from the benchmark's scene to the program's public API.

Every workload, the correctness gate and the layer ladder build their
datasets, graphs and units of work through these few functions, so they
all measure and check the same pipelines.
"""

from __future__ import annotations

import base64
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.data import DeclusteredStore, HostDisks, ParSSimDataset, StorageMap
from repro.serve import ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.profile import DatasetProfile

OUT = Path(__file__).resolve().parent / "out"

#: (configuration, algorithm) of the two real pipelines measured.
SERVE_PIPELINE = ("R-E-Ra-M", "zbuffer")
BATCH_PIPELINE = ("RE-Ra-M", "active")
COPIES_PER_HOST = 2


def dataset_and_profile(scene):
    """The in-memory ParSSim dataset and its measured profile."""
    dataset = ParSSimDataset(
        scene.shape, timesteps=scene.timesteps, species=scene.species,
        seed=scene.dataset_seed,
    )
    profile = DatasetProfile.measured(
        scene.name, dataset, nchunks=scene.nchunks, nfiles=scene.nfiles,
        isovalue=scene.isovalue,
    )
    return dataset, profile


def pipeline(scene, profile, dataset, config: str, algorithm: str):
    """(graph, placement) of one real pipeline on the single host."""
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(
        profile, storage, width=scene.image, height=scene.image,
        algorithm=algorithm, dataset=dataset, isovalue=scene.isovalue,
    )
    graph = app.graph(config)
    placement = app.placement(config, copies_per_host=COPIES_PER_HOST)
    return graph, placement


def uow(query: dict, scene) -> dict:
    """The unit of work a serve query binds onto a pipeline."""
    view = query["view"]
    return {
        "isovalue": query["isovalue"],
        "timestep": query["timestep"],
        "camera": Camera.orbit(
            scene.shape, azimuth_deg=view["azimuth"],
            elevation_deg=view["elevation"], width=scene.image,
            height=scene.image,
        ),
    }


def frame_b64(image) -> str:
    """A frame as the server ships it: binary PPM, base64."""
    return base64.b64encode(ppm_bytes(image)).decode()


@contextmanager
def scratch_dir():
    """A directory under ``out/`` that is gone when the block exits."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="store-", dir=OUT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def write_store(scene, directory: Path):
    """Write the scene as a declustered store; returns (store, profile)."""
    dataset, profile = dataset_and_profile(scene)
    DeclusteredStore.write(dataset, profile, directory)
    return DeclusteredStore.open(directory), profile


def stop_resource_tracker() -> None:
    """End multiprocessing's shared-memory helper process and wait for it.

    The engines start it (``resource_tracker.ensure_running``); left alone
    it only exits some time after this process has, on seeing its pipe
    close — the benchmark must not leave a process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def shm_listing() -> "frozenset[str]":
    """Names under /dev/shm (leaked payload segments show up here)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()
