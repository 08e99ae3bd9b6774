"""The system under test for the serve workloads, in its own process.

Started by the load generator as ``python server.py --scene S129
--cache-mb N``; prints one JSON line ``{"port": N}`` once the socket
accepts, then serves until a ``shutdown`` command arrives.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))


def build_service(scene, cache_mb: float):
    """The ``QueryService`` both serve workloads and the ladder measure."""
    from repro.serve import QueryService, SceneSpec

    spec = SceneSpec(
        scene.name, grid=scene.grid, timesteps=scene.timesteps,
        species=scene.species, nchunks=scene.nchunks, nfiles=scene.nfiles,
        seed=scene.dataset_seed, isovalue=scene.isovalue,
    )
    return QueryService(
        scenes=[spec], config="R-E-Ra-M", algorithm="zbuffer",
        width=scene.image, height=scene.image, copies=2, max_inflight=2,
        cache_mb=cache_mb,
    )


def main() -> None:
    import rig
    import scene as scenes
    from repro.serve import run_server

    parser = argparse.ArgumentParser()
    parser.add_argument("--scene", choices=("S129", "S33"), required=True)
    parser.add_argument("--cache-mb", type=float, required=True)
    args = parser.parse_args()
    service = build_service(getattr(scenes, args.scene), args.cache_mb)

    def ready(port: int) -> None:
        print(json.dumps({"port": port}), flush=True)

    try:
        run_server(service, port=0, admission_limit=8, ready=ready)
    finally:
        rig.stop_resource_tracker()


if __name__ == "__main__":
    main()
