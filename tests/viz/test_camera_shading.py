"""Tests for the camera transforms and shading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.viz.camera import Camera
from repro.viz.shading import shade_triangles, triangle_normals


def front_camera(width=100, height=100, view_width=10.0):
    # Looking down -z at the origin from z=+10; x right, y up.
    return Camera(
        eye=(0, 0, 10),
        target=(0, 0, 0),
        up=(0, 1, 0),
        width=width,
        height=height,
        view_width=view_width,
    )


def test_center_projects_to_image_center():
    cam = front_camera()
    xy, depth = cam.project_points(np.array([[0.0, 0.0, 0.0]]))
    assert xy[0] == pytest.approx([50.0, 50.0])
    assert depth[0] == pytest.approx(10.0)


def test_axes_orientation():
    cam = front_camera()
    xy, _ = cam.project_points(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert xy[0][0] > 50.0  # +x goes right
    assert xy[1][1] < 50.0  # +y goes up (smaller pixel row)


def test_depth_increases_away_from_camera():
    cam = front_camera()
    _, depth = cam.project_points(np.array([[0, 0, 5.0], [0, 0, -5.0]]))
    assert depth[0] < depth[1]


def test_ortho_scale():
    cam = front_camera(view_width=10.0)
    xy, _ = cam.project_points(np.array([[5.0, 0.0, 0.0]]))
    assert xy[0][0] == pytest.approx(100.0)  # right edge


def test_perspective_foreshortening():
    cam = Camera(
        eye=(0, 0, 10),
        target=(0, 0, 0),
        up=(0, 1, 0),
        width=100,
        height=100,
        projection="persp",
        fov_degrees=60.0,
    )
    near, _ = cam.project_points(np.array([[1.0, 0.0, 5.0]]))
    far, _ = cam.project_points(np.array([[1.0, 0.0, -5.0]]))
    # The same world offset spans fewer pixels farther away.
    assert abs(near[0][0] - 50) > abs(far[0][0] - 50)


def test_cull_behind_camera():
    cam = front_camera()
    tri = np.array([[[0, 0, 20.0], [1, 0, 20.0], [0, 1, 20.0]]])  # behind eye
    assert len(cam.project_triangles(tri)) == 0


def test_cull_offscreen():
    cam = front_camera(view_width=2.0)
    tri = np.array([[[100, 0, 0.0], [101, 0, 0.0], [100, 1, 0.0]]])
    assert len(cam.project_triangles(tri)) == 0


def test_project_and_cull_indices():
    cam = front_camera(view_width=2.0)
    tris = np.array(
        [
            [[0, 0, 0.0], [0.1, 0, 0.0], [0, 0.1, 0.0]],  # visible
            [[100, 0, 0.0], [101, 0, 0.0], [100, 1, 0.0]],  # offscreen
            [[0.2, 0.2, 0.0], [0.3, 0.2, 0.0], [0.2, 0.3, 0.0]],  # visible
        ]
    )
    screen, kept = cam.project_and_cull(tris)
    assert kept.tolist() == [0, 2]
    assert screen.shape == (2, 3, 3)


def test_perspective_culls_a_triangle_crossing_the_eye_plane():
    cam = Camera(eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0), projection="persp")
    tri = np.array([[[0, 0, 0.0], [1, 0, 0.0], [0, 0, 11.0]]])  # one vertex behind
    assert len(cam.project_triangles(tri)) == 0


world_coord = st.one_of(
    st.floats(-12.0, 12.0),
    # 1.7e308 is finite in the world and overflows to inf on the screen
    st.sampled_from([np.inf, -np.inf, np.nan, 1.7e308, -1.7e308]),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(world_coord, min_size=9, max_size=9), min_size=1, max_size=20),
    st.sampled_from(["ortho", "persp"]),
)
def test_cull_keeps_what_per_triangle_reductions_keep(rows, projection):
    # The folded cull against its definition: some vertex in front, all
    # nine coordinates finite, the screen box overlapping the viewport.
    cam = Camera(
        eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0), width=64, height=48,
        view_width=8.0, projection=projection,
    )
    tris = np.array(rows).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):
        xy, depth = cam.project_points(tris.reshape(-1, 3))
        screen = np.concatenate([xy, depth[:, None]], axis=1).reshape(-1, 3, 3)
        xs, ys = screen[:, :, 0], screen[:, :, 1]
        expected = np.flatnonzero(
            (screen[:, :, 2] > 0).any(axis=1)
            & np.isfinite(screen).all(axis=(1, 2))
            & (xs.max(axis=1) >= 0) & (xs.min(axis=1) < cam.width)
            & (ys.max(axis=1) >= 0) & (ys.min(axis=1) < cam.height)
        )
        projected, kept = cam.project_and_cull(tris)
    np.testing.assert_array_equal(kept, expected)
    np.testing.assert_array_equal(projected, screen[expected])


def test_empty_input():
    cam = front_camera()
    assert cam.project_triangles(np.empty((0, 3, 3))).shape == (0, 3, 3)
    screen, kept = cam.project_and_cull(np.empty((0, 3, 3)))
    assert screen.shape == (0, 3, 3) and kept.size == 0


def test_camera_validation():
    with pytest.raises(ConfigurationError):
        Camera(eye=(0, 0, 0), target=(0, 0, 0))
    with pytest.raises(ConfigurationError):
        Camera(eye=(0, 0, 1), target=(0, 0, 0), up=(0, 0, 1))  # parallel up
    with pytest.raises(ConfigurationError):
        Camera(eye=(0, 0, 1), target=(0, 0, 0), projection="weird")
    with pytest.raises(ConfigurationError):
        Camera(eye=(0, 0, 1), target=(0, 0, 0), width=0)


@pytest.mark.parametrize(
    "optics",
    [
        {"view_width": 0.0},  # divides by zero: a blank frame
        {"view_width": -2.0},  # a silently mirrored frame
        {"view_width": float("nan")},
        {"fov_degrees": 0.0, "projection": "persp"},  # divides by zero
        {"fov_degrees": 180.0, "projection": "persp"},  # every vertex on the centre
        {"fov_degrees": -30.0, "projection": "persp"},
        {"fov_degrees": float("nan"), "projection": "persp"},
    ],
)
def test_camera_refuses_impossible_optics(optics):
    with pytest.raises(ConfigurationError, match="view_width|fov_degrees"):
        Camera(eye=(0, 0, 1), target=(0, 0, 0), up=(0, 1, 0), **optics)


def test_fit_grid_sees_whole_grid():
    cam = Camera.fit_grid((9, 17, 33), width=64, height=64)
    corners = np.array(
        [
            [x, y, z]
            for x in (0, 32)
            for y in (0, 16)
            for z in (0, 8)
        ],
        dtype=np.float64,
    )
    xy, depth = cam.project_points(corners)
    assert (depth > 0).all()
    assert (xy >= 0).all()
    assert (xy[:, 0] <= 64).all() and (xy[:, 1] <= 64).all()


def test_normals_unit_length():
    tris = np.array(
        [
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 2], [0, 3, 0]],
        ],
        dtype=np.float64,
    )
    n = triangle_normals(tris)
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0)
    np.testing.assert_allclose(np.abs(n[0]), [0, 0, 1])
    np.testing.assert_allclose(np.abs(n[1]), [1, 0, 0])


def test_degenerate_normal_is_zero():
    tris = np.array([[[0, 0, 0], [1, 1, 1], [2, 2, 2]]], dtype=np.float64)
    np.testing.assert_allclose(triangle_normals(tris), 0.0)


def test_shading_brightness_order():
    # A triangle facing the light is brighter than a grazing one.
    facing = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=np.float64)
    grazing = np.array([[[0, 0, 0], [1, 0, 0], [0, 0, 1]]], dtype=np.float64)
    light = (0.0, 0.0, 1.0)
    bright = shade_triangles(facing, light_direction=light)
    dim = shade_triangles(grazing, light_direction=light)
    assert (bright[0].astype(int) > dim[0].astype(int)).all()


def test_shading_two_sided():
    tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=np.float64)
    flipped = tri[:, ::-1, :]
    light = (0.3, 0.2, 0.9)
    np.testing.assert_array_equal(
        shade_triangles(tri, light_direction=light),
        shade_triangles(flipped, light_direction=light),
    )


def test_shading_validation():
    tri = np.zeros((1, 3, 3))
    with pytest.raises(ConfigurationError):
        shade_triangles(tri, light_direction=(0, 0, 0))
    with pytest.raises(ConfigurationError):
        shade_triangles(tri, ambient=2.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([np.float32, np.float64])
)
def test_shading_a_subset_equals_the_subset_of_shading(seed, n, dtype):
    # The Raster filters shade only the triangles the cull keeps; that is
    # bit-identical to shading all and keeping the same rows.
    rng = np.random.default_rng(seed)
    tris = rng.uniform(-50, 50, size=(n, 3, 3)).astype(dtype)
    kept = np.flatnonzero(rng.random(n) < rng.random())
    np.testing.assert_array_equal(shade_triangles(tris)[kept], shade_triangles(tris[kept]))


def test_shading_range():
    rng = np.random.default_rng(0)
    tris = rng.uniform(-1, 1, size=(50, 3, 3))
    rgb = shade_triangles(tris, base_color=(200, 100, 50), ambient=0.2)
    assert rgb.dtype == np.uint8
    assert (rgb[:, 0] <= 200).all()
