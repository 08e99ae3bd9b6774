"""End-to-end isosurface rendering through both engines.

The paper's correctness requirement: "the final output is consistent
regardless of how many copies of various filters are instantiated" —
checked here across configurations, algorithms, copy counts and policies.
"""

import numpy as np
import pytest

from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.engines import SimulatedEngine, ThreadedEngine
from repro.errors import ConfigurationError
from repro.sim import Environment, homogeneous_cluster
from repro.viz import CONFIGURATIONS, IsosurfaceApp
from repro.viz.profile import DatasetProfile


@pytest.fixture(scope="module")
def scenario():
    dataset = ParSSimDataset((17, 17, 17), timesteps=2, species=1, seed=5)
    isovalue = 0.35
    profile = DatasetProfile.measured(
        "tiny", dataset, nchunks=8, nfiles=4, isovalue=isovalue
    )
    return dataset, profile, isovalue


def make_app(scenario, algorithm, hosts, **kw):
    dataset, profile, isovalue = scenario
    storage = StorageMap.balanced(profile.files, [HostDisks(h) for h in hosts])
    return IsosurfaceApp(
        profile,
        storage,
        width=48,
        height=48,
        algorithm=algorithm,
        dataset=dataset,
        isovalue=isovalue,
        **kw,
    )


def render(scenario, algorithm, configuration, hosts=("h0",), copies=1, policy="RR"):
    app = make_app(scenario, algorithm, hosts)
    graph = app.graph(configuration)
    placement = app.placement(
        configuration, compute_hosts=list(hosts), copies_per_host=copies
    )
    metrics = ThreadedEngine(graph, placement, policy=policy).run()
    return metrics


def test_reference_image_nonempty(scenario):
    result = render(scenario, "zbuffer", "R-E-Ra-M").result
    assert result.image.shape == (48, 48, 3)
    assert result.active_pixels > 20
    assert result.image.max() > 0


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_all_configurations_agree_zbuffer(scenario, configuration):
    ref = render(scenario, "zbuffer", "R-E-Ra-M").result
    out = render(scenario, "zbuffer", configuration).result
    np.testing.assert_array_equal(out.image, ref.image)


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_all_configurations_agree_active(scenario, configuration):
    ref = render(scenario, "zbuffer", "R-E-Ra-M").result
    out = render(scenario, "active", configuration).result
    np.testing.assert_array_equal(out.image, ref.image)


def test_transparent_copies_preserve_image(scenario):
    ref = render(scenario, "active", "RE-Ra-M").result
    out = render(
        scenario, "active", "RE-Ra-M", hosts=("h0", "h1"), copies=2, policy="DD"
    ).result
    np.testing.assert_array_equal(out.image, ref.image)


def test_policies_preserve_image(scenario):
    ref = render(scenario, "zbuffer", "R-E-Ra-M").result
    for policy in ("RR", "WRR", "DD"):
        out = render(
            scenario, "zbuffer", "R-E-Ra-M", hosts=("h0", "h1"), copies=2,
            policy=policy,
        ).result
        np.testing.assert_array_equal(out.image, ref.image)


def test_zbuffer_ships_more_bytes_than_active(scenario):
    zb = render(scenario, "zbuffer", "RE-Ra-M")
    ap = render(scenario, "active", "RE-Ra-M")
    _, zb_bytes = zb.stream_totals("Ra->M")
    ap_buffers, ap_bytes = ap.stream_totals("Ra->M")
    assert zb_bytes == 48 * 48 * 8  # the full z-buffer
    assert ap_bytes < zb_bytes
    assert ap_buffers >= 1


def test_timestep_changes_image(scenario):
    dataset, profile, isovalue = scenario
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    imgs = []
    for t in range(2):
        app = IsosurfaceApp(
            profile, storage, width=48, height=48, algorithm="zbuffer",
            dataset=dataset, isovalue=isovalue, timestep=t,
        )
        g = app.graph("RE-Ra-M")
        p = app.placement("RE-Ra-M")
        imgs.append(ThreadedEngine(g, p).run().result.image)
    assert not np.array_equal(imgs[0], imgs[1])


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
@pytest.mark.parametrize("algorithm", ["zbuffer", "active"])
def test_simulated_engine_runs_all_configs(scenario, configuration, algorithm):
    _dataset, profile, _iso = scenario
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=3)
    storage = StorageMap.balanced(
        profile.files, [HostDisks("node0", 2), HostDisks("node1", 2)]
    )
    app = IsosurfaceApp(profile, storage, width=64, height=64, algorithm=algorithm)
    graph = app.graph(configuration)
    placement = app.placement(configuration, merge_host="node2")
    metrics = SimulatedEngine(cluster, graph, placement, policy="DD").run()
    assert metrics.makespan > 0
    result = metrics.result
    assert result["algorithm"] == algorithm
    assert result["buffers"] > 0


def test_sim_buffer_conservation(scenario):
    # Buffers delivered to merge == buffers merge consumed; triangle bytes
    # on E->Ra match the profile's totals.
    from repro.viz.filters import TRIANGLE_BYTES

    _dataset, profile, _iso = scenario
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    storage = StorageMap.balanced(profile.files, [HostDisks("node0", 2)])
    app = IsosurfaceApp(profile, storage, width=64, height=64, algorithm="active")
    graph = app.graph("R-E-Ra-M")
    placement = app.placement("R-E-Ra-M", compute_hosts=["node1"])
    metrics = SimulatedEngine(cluster, graph, placement, policy="RR").run()
    _, tri_bytes = metrics.stream_totals("E->Ra")
    assert tri_bytes == profile.total_triangles(0) * TRIANGLE_BYTES
    buffers_to_merge, _ = metrics.stream_totals("Ra->M")
    assert metrics.result["buffers"] == buffers_to_merge


def test_app_validation(scenario):
    dataset, profile, isovalue = scenario
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    with pytest.raises(ConfigurationError):
        IsosurfaceApp(profile, storage, algorithm="wrong")
    with pytest.raises(ConfigurationError):
        IsosurfaceApp(profile, storage, timestep=99)
    app = IsosurfaceApp(profile, storage)
    with pytest.raises(ConfigurationError):
        app.graph("X-Y-Z")
    # Simulation-only app refuses to build real factories lazily at run.
    g = app.graph("RE-Ra-M")
    assert g.filters["RE"].factory is None
