"""The batched raster kernel must emit exactly the reference's fragments.

``rasterize_triangles`` bucket-processes whole triangle soups; the contract
is bit-identical (pixel, depth) fragments, in the reference's order, for
arbitrary input — including degenerate (zero-area), fully clipped,
behind-camera and shared-edge triangles, in both float32 and float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.viz.raster import ZBuffer, rasterize_triangles
from tests.viz.reference_kernels import triangle_fragments

WIDTH, HEIGHT = 40, 32


def reference_fragments(tris):
    pix, dep, counts = [], [], []
    for tri in tris:
        p, d = triangle_fragments(tri, WIDTH, HEIGHT)
        pix.append(p)
        dep.append(d)
        counts.append(p.size)
    if not pix:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.float64),
            np.zeros(0, np.int64),
        )
    return (
        np.concatenate(pix),
        np.concatenate(dep),
        np.array(counts, dtype=np.int64),
    )


def assert_matches_reference(tris):
    pix_b, dep_b, counts_b = rasterize_triangles(tris, WIDTH, HEIGHT)
    pix_r, dep_r, counts_r = reference_fragments(tris)
    np.testing.assert_array_equal(counts_b, counts_r)
    np.testing.assert_array_equal(pix_b, pix_r)
    # Bit-exact: the batched kernel replicates the reference's dtype paths.
    np.testing.assert_array_equal(dep_b, dep_r)


coord = st.floats(
    min_value=-60.0, max_value=100.0, allow_nan=False, allow_infinity=False,
    width=32,
)
depth_val = st.floats(
    min_value=-5.0, max_value=50.0, allow_nan=False, allow_infinity=False,
    width=32,
)
vertex = st.tuples(coord, coord, depth_val)
triangle = st.tuples(vertex, vertex, vertex)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(triangle, min_size=0, max_size=25),
    st.sampled_from([np.float32, np.float64]),
)
def test_matches_reference_on_random_soups(tri_list, dtype):
    tris = np.array(tri_list, dtype=dtype).reshape(-1, 3, 3)
    assert_matches_reference(tris)


@settings(max_examples=30, deadline=None)
@given(st.lists(triangle, min_size=1, max_size=10), st.data())
def test_matches_reference_with_degenerates(tri_list, data):
    tris = np.array(tri_list, dtype=np.float32).reshape(-1, 3, 3)
    # Force degenerate cases in random slots: collapsed vertices (zero
    # area), collinear vertices, far off-viewport, behind the camera.
    for i in range(len(tris)):
        kind = data.draw(
            st.sampled_from(["keep", "collapse", "collinear", "off", "behind"])
        )
        if kind == "collapse":
            tris[i, 1] = tris[i, 0]
        elif kind == "collinear":
            tris[i, 2, :2] = 2 * tris[i, 1, :2] - tris[i, 0, :2]
        elif kind == "off":
            tris[i, :, :2] += 1e4
        elif kind == "behind":
            tris[i, :, 2] = -np.abs(tris[i, :, 2]) - 1.0
    assert_matches_reference(tris)


def test_empty_and_shape_validation():
    pix, dep, counts = rasterize_triangles(np.empty((0, 3, 3)), WIDTH, HEIGHT)
    assert pix.size == 0 and dep.size == 0 and counts.size == 0
    with pytest.raises(ConfigurationError, match="3, 3"):
        rasterize_triangles(np.zeros((4, 2, 3)), WIDTH, HEIGHT)


def test_extreme_coordinates_do_not_overflow():
    tris = np.array(
        [
            [[1e30, 1e30, 1.0], [1e30, -1e30, 1.0], [-1e30, 0.0, 1.0]],
            [[-1e30, -1e30, 1.0], [-1e30, -1e30, 1.0], [-1e30, -1e30, 1.0]],
            [[5.0, 5.0, 1.0], [20.0, 5.0, 1.0], [5.0, 20.0, 1.0]],
        ],
        dtype=np.float64,
    )
    assert_matches_reference(tris)


def test_shared_edge_fragments_identical():
    # Two triangles sharing an edge: fragments on the shared edge must come
    # out identically from both kernels (inclusive >= 0 test on both sides).
    quad = np.array(
        [
            [[4.0, 4.0, 1.0], [20.0, 4.0, 2.0], [4.0, 20.0, 3.0]],
            [[20.0, 4.0, 2.0], [20.0, 20.0, 4.0], [4.0, 20.0, 3.0]],
        ],
        dtype=np.float32,
    )
    assert_matches_reference(quad)


def test_chunked_groups_match_single_pass():
    # Many same-shape boxes force the group chunking path when max_cells is
    # tiny; results must not depend on the chunking.
    rng = np.random.default_rng(3)
    base = np.array(
        [[2.0, 2.0, 1.0], [10.0, 2.0, 2.0], [2.0, 10.0, 3.0]], dtype=np.float64
    )
    offsets = rng.integers(0, 20, size=(50, 1, 1)).astype(np.float64)
    tris = base[None, :, :] + offsets
    a = rasterize_triangles(tris, WIDTH, HEIGHT, max_cells=16)
    b = rasterize_triangles(tris, WIDTH, HEIGHT, max_cells=1 << 20)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_zbuffer_image_matches_sequential_loop():
    # The batched ZBuffer.rasterize reduction must reproduce the old
    # per-triangle loop on ordinary scenes.
    rng = np.random.default_rng(11)
    tris = (rng.random((80, 3, 3)) * np.array([WIDTH, HEIGHT, 5.0])).astype(
        np.float32
    )
    colors = rng.integers(1, 255, (len(tris), 3)).astype(np.uint8)

    batched = ZBuffer(WIDTH, HEIGHT)
    batched.rasterize(tris, colors)

    sequential = ZBuffer(WIDTH, HEIGHT)
    for tri, rgb in zip(tris, colors):
        pixels, depth = triangle_fragments(tri, WIDTH, HEIGHT)
        if pixels.size == 0:
            continue
        wins = depth < sequential.depth[pixels]
        if wins.any():
            won = pixels[wins]
            sequential.depth[won] = depth[wins]
            sequential.color[won] = rgb

    np.testing.assert_array_equal(batched.image(), sequential.image())
    np.testing.assert_array_equal(batched.depth, sequential.depth)
