"""The vectorised Raster/Extract kernels against their sequential references.

``tests/viz/reference_kernels.py`` holds the interpreter loops the
production kernels replaced.  Every comparison here is *exact* (array
equality on values, dtypes, order and buffer boundaries): the kernels only
reorder work, they do not change arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import marching_cubes
from repro.viz.active_pixel import ActivePixelRaster
from repro.viz.marching_cubes import extract_triangles, triangle_count
from repro.viz.raster import ZBuffer
from tests.viz.reference_kernels import (
    SequentialActivePixelRaster,
    cube_configs_sequential,
    extract_triangles_sequential,
)

WIDTH, HEIGHT = 40, 32
#: A triangle covering the whole viewport (and then some).
COVER = np.array([[-10.0, -10.0], [200.0, -10.0], [-10.0, 200.0]])


# -- active pixel ----------------------------------------------------------
def assert_same_buffers(got, want):
    assert [b.entries for b in got] == [b.entries for b in want]
    for g, w in zip(got, want):
        for name in ("pixels", "depth", "color"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)


def assert_matches_sequential(calls, capacity=5461):
    """Feed the same ``process`` calls to both rasters; returns the buffers."""
    fast = ActivePixelRaster(WIDTH, HEIGHT, capacity)
    slow = SequentialActivePixelRaster(WIDTH, HEIGHT, capacity)
    emitted = []
    for tris, colors in calls:
        got = fast.process(tris, colors)
        assert_same_buffers(got, slow.process(tris, colors))
        emitted.append(got)
    assert fast.fragments_tested == slow.fragments_tested
    return emitted


def colors_for(n, seed=0):
    return np.random.default_rng(seed).integers(1, 255, (n, 3)).astype(np.uint8)


def covering(depths):
    """One viewport-covering triangle per (constant) depth."""
    tris = np.empty((len(depths), 3, 3), dtype=np.float64)
    tris[:, :, :2] = COVER
    tris[:, :, 2] = np.asarray(depths, dtype=np.float64)[:, None]
    return tris


coord = st.floats(min_value=-20.0, max_value=60.0, allow_nan=False, width=32)
depth_val = st.floats(min_value=-2.0, max_value=30.0, allow_nan=False, width=32)
triangle = st.tuples(*[st.tuples(coord, coord, depth_val)] * 3)
soup = st.lists(triangle, min_size=0, max_size=30)


def as_call(tri_list, dtype=np.float64, seed=0):
    tris = np.array(tri_list, dtype=dtype).reshape(-1, 3, 3)
    return tris, colors_for(len(tris), seed)


@settings(max_examples=60, deadline=None)
@given(soup, st.sampled_from([np.float32, np.float64]), st.integers(1, 400))
def test_random_soups(tri_list, dtype, capacity):
    assert_matches_sequential([as_call(tri_list, dtype)], capacity)


@settings(max_examples=25, deadline=None)
@given(st.lists(soup, min_size=2, max_size=4), st.integers(1, 300))
def test_several_process_calls_on_one_raster(soups, capacity):
    # The open WPA restarts after every call: a pixel won in one call is a
    # first touch again in the next.
    calls = [as_call(s, seed=i) for i, s in enumerate(soups)]
    assert_matches_sequential(calls, capacity)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
        min_size=8, max_size=24,
    ),
    soup,
)
def test_heavy_overdraw(depths, clutter):
    # Every pixel of the viewport is touched by >= 8 layers, in an order
    # unrelated to depth, with partial-coverage clutter in between.
    tris = np.concatenate([covering(depths), as_call(clutter)[0]])
    order = np.random.default_rng(len(depths)).permutation(len(tris))
    (buffers,) = assert_matches_sequential(
        [(tris[order], colors_for(len(tris)))]
    )
    assert sum(b.entries for b in buffers) == WIDTH * HEIGHT


def test_float32_collision_keeps_the_last_winner_not_the_nearest():
    # All three depths round to float32 1.0.  The second beats the stored
    # 1.0 in float64; the third is *farther* than the second but still
    # beats the stored float32(second) == 1.0, so its colour stays.
    depths = [1.0 + 4e-8, 1.0 - 1e-9, 1.0 - 5e-10]
    assert len({np.float32(d) for d in depths}) == 1
    tris, colors = covering(depths), colors_for(3)
    ((wpa,),) = assert_matches_sequential([(tris, colors)])
    assert (wpa.depth == np.float32(1.0)).all()
    assert (wpa.color == colors[2]).all()
    # The z-buffer reduces in float64 and keeps the nearest — it does not
    # promise the WPA's rule, which is why the two are pinned separately.
    zbuffer = ZBuffer(WIDTH, HEIGHT)
    zbuffer.rasterize(tris, colors)
    assert (zbuffer.color == colors[1]).all()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-40, 40)), min_size=2, max_size=16
    )
)
def test_float32_collisions_in_any_order(steps):
    # Depths a few 1e-9 apart around four bases: distinct in float64,
    # colliding in float32, arriving in arbitrary order.
    depths = [1.0 + base + k * 1e-9 for base, k in steps]
    assert_matches_sequential([(covering(depths), colors_for(len(depths)))])


def test_exact_depth_ties_keep_the_first_triangle():
    tris, colors = covering([3.0, 3.0, 3.0, 2.0, 2.0]), colors_for(5)
    ((wpa,),) = assert_matches_sequential([(tris, colors)])
    assert (wpa.color == colors[3]).all()


def test_capacity_one_exactly_full_and_one_over():
    tris, colors = as_call(
        [[(2, 2, 1), (30, 3, 2), (4, 25, 3)], [(10, 1, 2), (38, 30, 1), (1, 28, 2)]]
    )
    ((whole,),) = assert_matches_sequential([(tris, colors)], capacity=10**6)
    entries = whole.entries
    assert entries > 3
    for capacity, sizes in (
        (1, [1] * entries),
        (entries, [entries]),
        (entries - 1, [entries - 1, 1]),
        (entries + 1, [entries]),
    ):
        (buffers,) = assert_matches_sequential([(tris, colors)], capacity)
        assert [b.entries for b in buffers] == sizes
        np.testing.assert_array_equal(
            np.concatenate([b.pixels for b in buffers]), whole.pixels
        )


def test_empty_and_fully_culled_inputs_emit_nothing():
    culled = np.array(
        [
            [[500.0, 500.0, 1.0], [600.0, 500.0, 1.0], [500.0, 600.0, 1.0]],  # off
            [[2.0, 2.0, -1.0], [30.0, 2.0, -2.0], [2.0, 30.0, -3.0]],  # behind
            [[5.0, 5.0, 1.0], [5.0, 5.0, 1.0], [5.0, 5.0, 1.0]],  # zero area
        ]
    )
    emitted = assert_matches_sequential(
        [
            (np.empty((0, 3, 3)), np.empty((0, 3), dtype=np.uint8)),
            (culled, colors_for(3)),
            as_call([[(2, 2, 1), (30, 3, 2), (4, 25, 3)]]),
            (culled, colors_for(3)),
        ]
    )
    assert [len(buffers) for buffers in emitted] == [0, 0, 1, 0]


# -- marching cubes --------------------------------------------------------
def assert_extract_matches(scalars, isovalue, **placement):
    got = extract_triangles(scalars, isovalue, **placement)
    want = extract_triangles_sequential(scalars, isovalue, **placement)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert triangle_count(scalars, isovalue) == len(got)
    as_f32 = np.asarray(scalars, dtype=np.float32)
    configs = marching_cubes._cube_configs(as_f32, isovalue)
    want_configs = cube_configs_sequential(as_f32, isovalue)
    assert configs.dtype == want_configs.dtype
    np.testing.assert_array_equal(configs, want_configs)
    return got


@pytest.mark.parametrize("config", range(256))
def test_every_single_cube_configuration(config):
    rng = np.random.default_rng(config)
    inside = np.array([(config >> c) & 1 for c in range(8)], dtype=bool)
    values = np.where(inside, rng.uniform(0.6, 1.0, 8), rng.uniform(0.0, 0.4, 8))
    # corner c sits at (x, y, z) = (c & 1, c >> 1 & 1, c >> 2 & 1)
    cube = values.astype(np.float32).reshape(2, 2, 2)
    tris = assert_extract_matches(cube, 0.5, origin=(3.0, -2.0, 7.5), spacing=(1, 2, 0.5))
    assert len(tris) == len(marching_cubes.TRI_TABLE[config])


fields = st.tuples(
    st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31)
).map(
    lambda s: np.random.default_rng(s[3]).random(s[:3], dtype=np.float32)
)
isovalues = st.one_of(
    st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),
    st.sampled_from([np.float32(0.4), np.float64(0.6), 0.0, 1.0]),
)


@settings(max_examples=80, deadline=None)
@given(fields, st.lists(isovalues, min_size=1, max_size=3))
def test_random_fields_at_several_isovalues(scalars, levels):
    for isovalue in levels:
        assert_extract_matches(scalars, isovalue)
        assert_extract_matches(
            scalars, isovalue, origin=(16.0, 0.0, 32.0), spacing=(0.5, 1.0, 3.0)
        )


@pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
def test_blocks_that_split_inside_a_configuration_run(monkeypatch, block):
    # A smooth field has long runs of one configuration (hundreds of cubes,
    # 1-12 triangles each); small blocks cut through runs and through the
    # triangles of a single cube.
    g = np.linspace(-1, 1, 14, dtype=np.float32)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    scalars = -np.sqrt(X**2 + Y**2 + Z**2)
    want = extract_triangles(scalars, -0.7)
    assert len(want) > 64 * 8
    monkeypatch.setattr(marching_cubes, "_BLOCK_TRIANGLES", block)
    np.testing.assert_array_equal(assert_extract_matches(scalars, -0.7), want)


def test_non_contiguous_and_float64_fields():
    rng = np.random.default_rng(5)
    big = rng.random((9, 8, 14))
    assert_extract_matches(big[::2, 1:, ::3], 0.5)  # float64 view, strided
    assert_extract_matches(np.asfortranarray(big.astype(np.float32)), 0.45)
