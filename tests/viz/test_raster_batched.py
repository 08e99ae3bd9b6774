"""The batched raster kernel must emit exactly the reference's fragments.

``rasterize_triangles`` walks the candidate cells of whole triangle soups
in passes; the contract is bit-identical (pixel, depth) fragments, in the
reference's order, for arbitrary input and any pass size — including
degenerate (zero-area), fully clipped, behind-camera and shared-edge
triangles, in both float32 and float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.viz.raster import ZBuffer, _fragments, rasterize_triangles
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


depth_pos = st.floats(min_value=0.1, max_value=5.0)


@st.composite
def near_centre_triangle(draw, dtype):
    """A 0-4 px triangle whose vertices sit within 8 ulps of pixel centres.

    Vertices 0 and 1 share a centre half the time: the thin case, where a
    float32 coefficient's rounding reaches past the vertex box.
    """
    cx, cy = draw(st.integers(2, WIDTH - 3)), draw(st.integers(2, HEIGHT - 3))
    shared = draw(st.booleans())
    step = st.integers(-2, 2)
    tri = []
    for vertex in range(3):
        on_first = vertex == 0 or (shared and vertex == 1)
        dx, dy = (0, 0) if on_first else (draw(step), draw(step))
        x = dtype(cx + dx + 0.5)
        y = dtype(cy + dy + 0.5)
        x += draw(st.integers(-8, 8)) * np.spacing(x)
        y += draw(st.integers(-8, 8)) * np.spacing(y)
        tri.append((x, y, draw(depth_pos)))
    return tri


@st.composite
def sliver_triangle(draw):
    """The third vertex 1e-9 to 1e-3 px off the line of the first edge."""
    x0, y0 = draw(st.floats(0.0, WIDTH)), draw(st.floats(0.0, HEIGHT))
    dx, dy = draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))
    length = np.hypot(dx, dy)
    if length < 1e-3:
        dx, dy, length = 1.0, 0.0, 1.0
    t = draw(st.floats(-0.5, 1.5))
    off = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -3.0))
    x2 = x0 + t * dx - off * dy / length
    y2 = y0 + t * dy + off * dx / length
    z = [draw(depth_pos) for _ in range(3)]
    return [(x0, y0, z[0]), (x0 + dx, y0 + dy, z[1]), (x2, y2, z[2])]


@st.composite
def scaled_triangle(draw):
    """A 1e-3-scale or viewport-length triangle."""
    scale = draw(st.sampled_from([1e-3, float(WIDTH)]))
    cx, cy = draw(st.floats(0.0, WIDTH)), draw(st.floats(0.0, HEIGHT))
    unit = st.floats(-1.0, 1.0)
    return [
        (cx + scale * draw(unit), cy + scale * draw(unit), draw(depth_pos))
        for _ in range(3)
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.data())
def test_candidate_box_keeps_every_reference_fragment(dtype, data):
    # The fragment pass tests only the cells whose centres lie within a
    # dtype-scaled margin of each triangle's vertex box; every cell it
    # skips must be one the reference rejects, at the edge cases of that
    # bound: vertices ulps from centres, slivers, tiny and huge triangles.
    kinds = st.one_of(near_centre_triangle(dtype), sliver_triangle(), scaled_triangle())
    tri_list = data.draw(st.lists(kinds, min_size=1, max_size=40))
    assert_matches_reference(np.array(tri_list, dtype=dtype).reshape(-1, 3, 3))


def test_float32_fragment_beyond_the_vertex_box_is_kept():
    # Two vertices sit 4 float32 ulps (7.6e-6 px) right of pixel (20, 21)'s
    # centre, yet the reference's float32 coefficients cover that centre
    # (in float64 the same triangle covers none).  A margin blind to the
    # dtype, 1e-6 px, would drop the fragment.
    tri = np.array(
        [
            [
                [20.50000762939453, 21.499984741210938, 2.767178535461426],
                [20.50000762939453, 21.500011444091797, 2.7552881240844727],
                [23.5, 19.4999942779541, 4.3947343826293945],
            ]
        ],
        dtype=np.float32,
    )
    pixels, _ = triangle_fragments(tri[0], WIDTH, HEIGHT)
    assert pixels.tolist() == [21 * WIDTH + 20]
    assert 20.5 < tri[0, :, 0].min() - 1e-6
    assert_matches_reference(tri)


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


@pytest.mark.parametrize("max_cells", [1, 16, 200])
def test_passes_match_one_pass(max_cells):
    # Many boxes split over many passes when max_cells is small, down to
    # one cell; a 25 x 25 box alone exceeds every cap here and is a pass
    # of its own.  Results must not depend on the split.
    rng = np.random.default_rng(3)
    base = np.array(
        [[2.0, 2.0, 1.0], [10.0, 2.0, 2.0], [2.0, 10.0, 3.0]], dtype=np.float64
    )
    offsets = rng.integers(0, 20, size=(50, 1, 1)).astype(np.float64)
    large = np.array([[[3.0, 3.0, 1.0], [27.0, 4.0, 2.0], [5.0, 27.0, 3.0]]])
    tris = np.concatenate([base[None, :, :] + offsets, large, base[None]])
    a = rasterize_triangles(tris, WIDTH, HEIGHT, max_cells=max_cells)
    b = rasterize_triangles(tris, WIDTH, HEIGHT, max_cells=1 << 20)
    assert a[2][-2] > 200
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(triangle, min_size=0, max_size=25),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([1, 7, 1 << 20]),
)
def test_fragments_come_in_triangle_order(tri_list, dtype, max_cells):
    # The walk's order is the reference's: no sort restores it.
    tris = np.array(tri_list, dtype=dtype).reshape(-1, 3, 3)
    _, _, tri = _fragments(tris, WIDTH, HEIGHT, max_cells)
    assert (np.diff(tri) >= 0).all()


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
