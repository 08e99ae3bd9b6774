"""The simulated cost models, pinned to the hand-written classes they replaced.

``sim_pins.json`` was generated on the commit *before* the fused models
(``ReadExtractSourceModel``, ``ExtractRasterModel``,
``ReadExtractRasterSourceModel``) were replaced by ``fuse(...)`` over the
R, E, Ra and M parts (a093290).  Every paper table comes out of these
models, and the parity tests compare the simulator only with itself — so
a cost term dropped from all four configurations at once would be
invisible everywhere but here.

Pinned, for 4 configurations x 2 algorithms x {RR, WRR, DD} on a small
Table-4-style testbed (8 Rogue nodes, one background job on four of them,
one Merge sink): per-stream ``(buffers, bytes)`` exactly, per-filter
busy time and makespan to 1e-9 relative, per-copy ``memory_bytes``
exactly; plus Table 1's stream volumes (R-E-Ra-M isolated on four hosts).

Regenerate (only when a change *means* to move the simulator's numbers)
with ``PYTHONPATH=src python tests/viz/test_sim_pins.py``.
"""

import json
from pathlib import Path

import pytest

from repro.data import HostDisks, StorageMap
from repro.engines import SimulatedEngine
from repro.experiments.table1 import baseline_pipeline
from repro.sim import Environment, umd_testbed
from repro.viz import CONFIGURATIONS, IsosurfaceApp
from repro.viz.profile import dataset_1p5gb, dataset_25gb

PINS = Path(__file__).with_name("sim_pins.json")

NODES, LOADED, JOBS = 8, 4, 1
SCALE, IMAGE = 0.01, 512
ALGORITHMS = ("zbuffer", "active")
POLICIES = ("RR", "WRR", "DD")
TABLE1_SCALE, TABLE1_IMAGE = 0.02, 1024
RELATIVE = 1e-9

POINTS = [
    (configuration, algorithm, policy)
    for configuration in CONFIGURATIONS
    for algorithm in ALGORITHMS
    for policy in POLICIES
]


def point_key(configuration: str, algorithm: str, policy: str) -> str:
    return f"{configuration}/{algorithm}/{policy}"


def run_point(profile, configuration: str, algorithm: str, policy: str) -> dict:
    """One scenario point on a fresh testbed, reduced to what is pinned."""
    names = [f"rogue{i}" for i in range(NODES)]
    cluster = umd_testbed(
        Environment(), red_nodes=0, blue_nodes=0, rogue_nodes=NODES,
        deathstar=False,
    )
    cluster.set_background_load(JOBS, hosts=names[:LOADED])
    storage = StorageMap.balanced(
        profile.files, [HostDisks(host, 2) for host in names]
    )
    app = IsosurfaceApp(
        profile, storage, width=IMAGE, height=IMAGE, algorithm=algorithm
    )
    graph = app.graph(configuration)
    placement = app.placement(
        configuration, compute_hosts=names, merge_host=names[-1]
    )
    metrics = (
        SimulatedEngine(cluster, graph, placement, policy=policy)
        .run()
        .validate(graph)
    )
    return {
        "streams": {
            name: list(metrics.stream_totals(name)) for name in graph.streams
        },
        "busy": {name: metrics.filter_busy_time(name) for name in graph.filters},
        "makespan": metrics.makespan,
        "memory": {
            name: spec.sim_factory().memory_bytes()
            for name, spec in graph.filters.items()
        },
    }


def table1_volumes() -> dict:
    """Table 1's per-stream ``[buffers, bytes]``, both algorithms."""
    profile = dataset_1p5gb(scale=TABLE1_SCALE)
    out = {}
    for algorithm in ALGORITHMS:
        metrics = baseline_pipeline(
            profile, algorithm, TABLE1_IMAGE, TABLE1_IMAGE
        )
        out[algorithm] = {
            stream: list(metrics.stream_totals(stream))
            for stream in ("R->E", "E->Ra", "Ra->M")
        }
    return out


def compute_pins() -> dict:
    profile = dataset_25gb(scale=SCALE)
    return {
        "points": {
            point_key(*point): run_point(profile, *point) for point in POINTS
        },
        "table1": table1_volumes(),
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def profile():
    return dataset_25gb(scale=SCALE)


@pytest.mark.parametrize("point", POINTS, ids=lambda p: point_key(*p))
def test_simulated_point_matches_parent(expected, profile, point):
    want = expected["points"][point_key(*point)]
    found = run_point(profile, *point)
    assert found["streams"] == want["streams"]
    assert found["memory"] == want["memory"]
    assert found["busy"] == pytest.approx(want["busy"], rel=RELATIVE, abs=0)
    assert found["makespan"] == pytest.approx(
        want["makespan"], rel=RELATIVE, abs=0
    )


def test_table1_stream_volumes_match_parent(expected):
    assert table1_volumes() == expected["table1"]


if __name__ == "__main__":
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
