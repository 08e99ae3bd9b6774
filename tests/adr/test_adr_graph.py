"""ADR as a graph on the simulated engine.

The static partition holds (every chunk stays on its node), each chunk is
read once, the run's books balance, and the makespans stay within a
stated tolerance of the hand-written discrete-event simulation the graph
replaced, and equal to their pinned values.
"""

import functools

import pytest

from repro.adr import ADRRuntime, weighted_static_partition
from repro.sim import Environment, umd_testbed
from repro.viz.profile import dataset_25gb

PROFILE = dataset_25gb(scale=0.02)


def runtime(rogue, blue, image, jobs=0):
    """Rogue + Blue nodes of the testbed, ``jobs`` on every Rogue node."""
    cluster = umd_testbed(
        Environment(), red_nodes=0, blue_nodes=blue, rogue_nodes=rogue,
        deathstar=False,
    )
    nodes = [f"rogue{i}" for i in range(rogue)]
    cluster.set_background_load(jobs, hosts=nodes)
    nodes += [f"blue{i}" for i in range(blue)]
    return ADRRuntime(cluster, nodes, PROFILE, width=image, height=image)


@functools.cache
def makespan(rogue, blue, image, jobs):
    return runtime(rogue, blue, image, jobs).run().makespan


def test_static_partition_holds_on_the_engine():
    rt = runtime(2, 2, 512, jobs=4)
    metrics = rt.engine().run()
    assignment = weighted_static_partition(PROFILE.chunks, rt.nodes)
    for i, node in enumerate(rt.nodes):
        stats = metrics.streams[f"R{i}->ERa{i}"]
        assert stats.by_route == {(node, node): len(assignment[node])}


def test_each_chunk_is_read_once():
    result = runtime(2, 2, 512).run()
    assert sum(result.chunks_per_node.values()) == len(PROFILE.chunks)
    assert result.bytes_read == PROFILE.bytes_per_timestep


def test_books_balance_at_a_figure5_point():
    rt = runtime(2, 2, 2048, jobs=1)
    rt.engine().run().validate(rt.graph)


# The parent's hand-written simulation at timestep 0, and the stated bound
# on new / parent: [0.99, 1.25] on Figure 4's points, [0.99, 1.45] on
# Figure 5's 2048² points, where each copy ships its slabs one at a time.
@pytest.mark.parametrize(
    "rogue, blue, image, jobs, parent, high",
    [
        (1, 0, 2048, 0, 7.056709312000027, 1.25),
        (8, 0, 512, 0, 1.121222860753623, 1.25),
        (4, 4, 2048, 0, 7.258120399694334, 1.45),
        (4, 4, 2048, 16, 39.06271468139131, 1.45),
    ],
)
def test_makespan_within_tolerance_of_the_hand_written_simulation(
    rogue, blue, image, jobs, parent, high
):
    assert 0.99 <= makespan(rogue, blue, image, jobs) / parent <= high


@pytest.mark.parametrize(
    "rogue, blue, image, jobs, pinned",
    [
        (1, 0, 2048, 0, 8.189658592000034),
        (8, 0, 512, 0, 1.2551211208405952),
        (4, 4, 2048, 0, 8.73025197964543),
        (4, 4, 2048, 16, 42.34006269356517),
    ],
)
def test_makespan_is_pinned(rogue, blue, image, jobs, pinned):
    """The graph's own makespans, bit for bit: a change to the cost models
    or the engine must not move Figure 4 or 5 unseen."""
    assert makespan(rogue, blue, image, jobs) == pinned
