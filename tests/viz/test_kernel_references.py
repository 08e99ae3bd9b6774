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
from repro.viz.camera import Camera
from repro.viz.marching_cubes import extract_triangles, triangle_count
from repro.viz.raster import ZBuffer, ZBufferSlab
from repro.viz.shading import DeferredShading, shade_triangles
from tests.viz.reference_kernels import (
    SequentialActivePixelRaster,
    cube_configs_sequential,
    extract_triangles_sequential,
    merge_slab_masked,
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


def field_from(shape, seed, nan):
    scalars = np.random.default_rng(seed).random(shape, dtype=np.float32)
    if nan:  # a NaN sample is outside; the edges it ends interpolate to NaN
        scalars.flat[seed % scalars.size] = np.nan
    return scalars


fields = st.tuples(
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    st.integers(0, 2**31),
    st.booleans(),
).map(lambda s: field_from(*s))
isovalues = st.one_of(
    st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),
    st.floats(min_value=-0.1, max_value=1.1, allow_nan=False).map(np.float64),
    st.sampled_from([np.float32(0.4), np.float64(0.6), 0.0, 1.0]),
)
axis_spacing = st.one_of(
    st.just(1.0), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
)
placements = st.tuples(
    st.tuples(*[st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)] * 3),
    st.tuples(axis_spacing, axis_spacing, axis_spacing),
)


@settings(max_examples=80, deadline=None)
@given(fields, st.lists(isovalues, min_size=1, max_size=3), placements)
def test_random_fields_at_several_isovalues(scalars, levels, placement):
    origin, spacing = placement
    for isovalue in levels:
        assert_extract_matches(scalars, isovalue)
        assert_extract_matches(scalars, isovalue, origin=origin, spacing=spacing)


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
    monkeypatch.setattr(marching_cubes, "_BLOCK_CUBES", block)
    np.testing.assert_array_equal(assert_extract_matches(scalars, -0.7), want)


def test_non_contiguous_and_float64_fields():
    rng = np.random.default_rng(5)
    big = rng.random((9, 8, 14))
    assert_extract_matches(big[::2, 1:, ::3], 0.5)  # float64 view, strided
    assert_extract_matches(np.asfortranarray(big.astype(np.float32)), 0.45)


# -- deferred shading --------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 300))
def test_deferred_colours_rasterise_like_eager_ones(seed, n, capacity):
    # Both rasterisers read colours only at winning triangles; a colour
    # source that shades the culled world triangles there gives the
    # z-buffer and the WPA stream of shading them all up front.
    rng = np.random.default_rng(seed)
    world = rng.uniform(-12, 20, size=(n, 3, 3)).astype(np.float32)
    camera = Camera.orbit(
        (9, 9, 9), azimuth_deg=float(rng.uniform(0, 360)),
        elevation_deg=float(rng.uniform(-30, 60)), width=WIDTH, height=HEIGHT,
    )
    screen, kept = camera.project_and_cull(world)
    eager = shade_triangles(world[kept])
    lazy = DeferredShading(world, kept)
    zbuffers = [ZBuffer(WIDTH, HEIGHT) for _ in range(2)]
    for zbuffer, colors in zip(zbuffers, (eager, lazy)):
        zbuffer.rasterize(screen, colors)
    assert zbuffers[0].depth.tobytes() == zbuffers[1].depth.tobytes()
    assert zbuffers[0].color.tobytes() == zbuffers[1].color.tobytes()
    want = ActivePixelRaster(WIDTH, HEIGHT, capacity).process(screen, eager)
    got = ActivePixelRaster(WIDTH, HEIGHT, capacity).process(screen, lazy)
    assert_same_buffers(got, want)


# -- z-buffer merge ----------------------------------------------------------
#: Few distinct depths, so equal depths meet; inf is background.
merge_depths = st.sampled_from([np.inf, 0.5, 1.0, 1.0, 2.0, 7.25])


def zbuffer_holding(depth, seed):
    zbuffer = ZBuffer(len(depth), 1)
    zbuffer.depth[:] = depth
    zbuffer.color[:] = colors_for(len(depth), seed)
    return zbuffer


def assert_same_zbuffer(got, want):
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.color.tobytes() == want.color.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_slab_merge_matches_the_masked_merge(data):
    n = data.draw(st.integers(1, 40))
    state = data.draw(st.lists(merge_depths, min_size=n, max_size=n))
    got, want = zbuffer_holding(state, 1), zbuffer_holding(state, 1)
    for seed in range(data.draw(st.integers(1, 4))):
        start = data.draw(st.integers(0, n - 1))
        size = data.draw(st.integers(1, n - start))
        depth = data.draw(st.lists(merge_depths, min_size=size, max_size=size))
        slab = ZBufferSlab(
            start, np.array(depth, dtype=np.float32), colors_for(size, seed + 2)
        )
        got.merge_slab(slab)
        merge_slab_masked(want, slab)
        assert_same_zbuffer(got, want)


def test_slab_merge_keeps_the_stored_value_on_equal_depth():
    zbuffer = zbuffer_holding([2.0, 2.0, 2.0], seed=1)
    stored = zbuffer.color.copy()
    zbuffer.merge_slab(ZBufferSlab(0, np.full(3, 2.0, np.float32), colors_for(3, 9)))
    assert (zbuffer.color == stored).all()
    assert (zbuffer.depth == 2.0).all()


def test_an_all_background_slab_writes_nothing():
    zbuffer = zbuffer_holding([np.inf, 1.0, np.inf, 3.0], seed=1)
    zbuffer.depth.flags.writeable = False  # any write would raise
    zbuffer.color.flags.writeable = False
    background = ZBuffer(4, 1).slabs(3)
    for slab in background:
        zbuffer.merge_slab(slab)
    zbuffer.merge(ZBuffer(4, 1))


def test_short_final_slab_at_an_offset():
    source = ZBuffer(10, 10)
    tris = np.array(
        [
            [[0.0, 0.0, 2.0], [9.0, 0.0, 2.0], [0.0, 9.0, 2.0]],
            [[3.0, 3.0, 1.0], [10.0, 3.0, 1.0], [3.0, 10.0, 1.0]],
        ]
    )
    source.rasterize(tris, colors_for(2, 3))
    slabs = source.slabs(16)
    assert (slabs[-1].start, len(slabs[-1].depth)) == (96, 4)
    state = np.where(np.arange(100) % 3 == 0, 1.5, np.inf)
    got, want = zbuffer_holding(state, 5), zbuffer_holding(state, 5)
    for slab in slabs:
        got.merge_slab(slab)
        merge_slab_masked(want, slab)
    assert_same_zbuffer(got, want)
    assert np.isfinite(got.depth).sum() > np.isfinite(state).sum()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_whole_buffer_merge_matches_the_masked_merge(data):
    n = data.draw(st.integers(1, 40))
    mine, theirs = (data.draw(st.lists(merge_depths, min_size=n, max_size=n)) for _ in "ab")
    got, want = zbuffer_holding(mine, 1), zbuffer_holding(mine, 1)
    other = zbuffer_holding(theirs, 2)
    got.merge(other)
    merge_slab_masked(want, ZBufferSlab(0, other.depth, other.color))
    assert_same_zbuffer(got, want)
