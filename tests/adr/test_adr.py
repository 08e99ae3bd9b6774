"""Tests for the ADR baseline: partitioning and runtime behaviour."""

import pytest

from repro.adr import ADRRuntime, weighted_static_partition
from repro.data.chunks import partition_grid
from repro.data.hilbert import hilbert_index
from repro.errors import ConfigurationError
from repro.sim import Environment, homogeneous_cluster
from repro.viz.profile import DatasetProfile, dataset_1p5gb, dataset_25gb


def profile(nchunks=64, tris=20_000):
    return DatasetProfile.synthetic(
        "t", (33, 33, 33), nchunks=nchunks, nfiles=16,
        timesteps=2, total_triangles=tris, seed=0,
    )


def run_adr(nodes=4, width=256, background=None, **kw):
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=nodes)
    names = [f"node{i}" for i in range(nodes)]
    if background:
        for host, jobs in background.items():
            cluster.host(host).set_background_load(jobs)
    runtime = ADRRuntime(cluster, names, profile(), width=width, height=width, **kw)
    return runtime.run()


def test_static_partition_uniform():
    chunks = partition_grid((9, 9, 9), (4, 4, 4))
    assignment = weighted_static_partition(chunks, ["a", "b", "c"])
    sizes = [len(v) for v in assignment.values()]
    assert sum(sizes) == 64
    assert max(sizes) - min(sizes) <= 1


def test_static_partition_all_chunks_once():
    chunks = partition_grid((9, 9, 9), (2, 2, 2))
    assignment = weighted_static_partition(chunks, ["a", "b"])
    ids = sorted(c.chunk_id for v in assignment.values() for c in v)
    assert ids == [c.chunk_id for c in chunks]


@pytest.mark.parametrize("dataset", [dataset_25gb(0.02), dataset_1p5gb(0.05)])
def test_static_partition_deals_the_hilbert_order_round_robin(dataset):
    """Equal weights apportion exactly as dealing the Hilbert order in turn."""
    order = max(1, max(max(c.index) for c in dataset.chunks).bit_length())
    ordered = sorted(dataset.chunks, key=lambda c: hilbert_index(c.index, order))
    for count in range(1, 17):
        nodes = [f"n{i}" for i in range(count)]
        assignment = weighted_static_partition(dataset.chunks, nodes)
        assert [assignment[node] for node in nodes] == [
            ordered[i::count] for i in range(count)
        ]


def test_static_partition_validation():
    chunks = partition_grid((5, 5, 5), (1, 1, 1))
    with pytest.raises(ConfigurationError):
        weighted_static_partition(chunks, [])
    with pytest.raises(ConfigurationError):
        weighted_static_partition([], ["a"])


def test_adr_runs_and_scales():
    t1 = run_adr(nodes=1).makespan
    t4 = run_adr(nodes=4).makespan
    assert t4 < t1  # parallel local phase


def test_adr_phases_sum_to_makespan():
    result = run_adr(nodes=4)
    assert result.makespan == pytest.approx(
        result.local_phase + result.merge_phase, rel=1e-6
    )
    assert result.local_phase > 0
    assert result.merge_phase > 0


def test_adr_single_node_no_network_merge():
    result = run_adr(nodes=1)
    assert result.merge_phase < 0.2  # image extraction only


def test_adr_chunk_accounting():
    result = run_adr(nodes=4)
    assert sum(result.chunks_per_node.values()) == 64
    assert result.bytes_read == profile().bytes_per_timestep


def test_adr_larger_image_costs_more():
    small = run_adr(nodes=4, width=128).makespan
    large = run_adr(nodes=4, width=1024).makespan
    assert large > small


def test_adr_background_load_hurts_proportionally():
    # Loading half the nodes inflates the local phase: the paper's core
    # claim about static partitioning is that the slowest node gates it.
    clean = run_adr(nodes=4)
    loaded = run_adr(nodes=4, background={"node0": 4, "node1": 4})
    assert loaded.local_phase > 2.0 * clean.local_phase
    # Unloaded nodes finished early but could not help.
    assert loaded.node_finish["node2"] < loaded.node_finish["node0"]


def test_adr_timestep_selects_profile_column():
    r0 = run_adr(nodes=2, timestep=0)
    r1 = run_adr(nodes=2, timestep=1)
    assert r0.makespan != r1.makespan  # triangle distribution drifts


def test_adr_validation():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    with pytest.raises(ConfigurationError):
        ADRRuntime(cluster, [], profile())
    with pytest.raises(ConfigurationError):
        ADRRuntime(cluster, ["node0"], profile(), io_depth=0)
    with pytest.raises(ConfigurationError):
        ADRRuntime(cluster, ["node0"], profile(), timestep=9)
    diskless = homogeneous_cluster(Environment(), nodes=1, disks=[])
    with pytest.raises(ConfigurationError):
        ADRRuntime(diskless, ["node0"], profile())


def test_adr_io_overlap_benefit():
    # Deep I/O window should be no slower than serial (depth 1 still
    # overlaps one read with compute; compare against a tiny disk).
    deep = run_adr(nodes=2, io_depth=8).makespan
    shallow = run_adr(nodes=2, io_depth=1).makespan
    assert deep <= shallow * 1.01


def test_adr_deterministic():
    assert run_adr(nodes=3).makespan == run_adr(nodes=3).makespan


def test_weighted_partition_proportional():
    from repro.adr import weighted_static_partition
    from repro.data.chunks import partition_grid

    chunks = partition_grid((9, 9, 9), (4, 4, 4))  # 64 chunks
    assignment = weighted_static_partition(chunks, ["slow", "fast"], [1.0, 3.0])
    assert len(assignment["fast"]) == 48
    assert len(assignment["slow"]) == 16
    ids = sorted(c.chunk_id for v in assignment.values() for c in v)
    assert ids == [c.chunk_id for c in chunks]


def test_weighted_partition_validation():
    from repro.adr import weighted_static_partition
    from repro.data.chunks import partition_grid

    chunks = partition_grid((5, 5, 5), (2, 2, 2))
    with pytest.raises(ConfigurationError):
        weighted_static_partition(chunks, ["a"], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        weighted_static_partition(chunks, ["a", "b"], [1.0, 0.0])
    with pytest.raises(ConfigurationError):
        weighted_static_partition([], ["a"], [1.0])


def test_adr_multicore_node_uses_all_cores():
    # Same total work on 1 node: a 2-core node's local phase is ~half the
    # 1-core node's once I/O overlap is accounted for.
    env1 = Environment()
    c1 = homogeneous_cluster(env1, nodes=1, cores=1)
    one = ADRRuntime(c1, ["node0"], profile(), width=128, height=128).run()
    env2 = Environment()
    c2 = homogeneous_cluster(env2, nodes=1, cores=2)
    two = ADRRuntime(c2, ["node0"], profile(), width=128, height=128).run()
    assert two.local_phase < 0.75 * one.local_phase


def test_adr_weighted_runtime_matches_partition():
    env = Environment()
    cluster = homogeneous_cluster(env, nodes=2)
    runtime = ADRRuntime(
        cluster, ["node0", "node1"], profile(), width=128, height=128,
        partition_weights=[3.0, 1.0],
    )
    result = runtime.run()
    assert result.chunks_per_node["node0"] == 48
    assert result.chunks_per_node["node1"] == 16
    with pytest.raises(ConfigurationError):
        ADRRuntime(cluster, ["node0"], profile(), partition_weights=[1.0, 2.0])
