"""Extract's indexed mesh and Raster's projection through it, bit for bit.

Extract ships each chunk as ``(vertices, faces)`` and Raster projects each
vertex once, gathering the screen triangles through ``faces``.  Frames stay
the bits of the triangle soup only if (a) the mesh's faces gather the
soup the sequential reference extracts, and (b) a vertex projects to the
same bits in the vertex array as in the soup.  (b) is a property of the
BLAS build behind ``@``, not of the code, so it is held here by property
on whatever NumPy runs the suite; CI also runs this file on the NumPy that
recorded the kernel digests, where a skip fails.  The mesh is welded: one
vertex per cut grid edge, counted here from the grid alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import marching_cubes
from repro.viz.camera import Camera
from repro.viz.marching_cubes import extract_mesh
from repro.viz.raster import ZBuffer
from repro.viz.shading import DeferredShading, shade_triangles
from tests.viz.reference_kernels import extract_triangles_sequential
from tests.viz.test_kernel_references import fields, isovalues, placements

WIDTH, HEIGHT = 40, 32


# -- the mesh gathers the reference soup ---------------------------------------
def assert_mesh_gathers_the_reference(scalars, isovalue, **placement):
    vertices, faces = extract_mesh(scalars, isovalue, **placement)
    want = extract_triangles_sequential(scalars, isovalue, **placement)
    assert vertices.dtype == np.float32 and vertices.shape[1:] == (3,)
    assert faces.dtype == np.int32 and faces.shape == (len(want), 3)
    got = np.take(vertices, faces, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # NaN vertices included
    if len(faces):
        assert 0 <= faces.min() and faces.max() < len(vertices)
        # One cube's cut edges give at least 3 vertices; each is used.
        assert 3 <= len(vertices) <= 3 * len(faces)
    else:
        assert len(vertices) == 0


@pytest.mark.parametrize("config", range(256))
def test_every_single_cube_configuration(config):
    rng = np.random.default_rng(config)
    inside = np.array([(config >> c) & 1 for c in range(8)], dtype=bool)
    values = np.where(inside, rng.uniform(0.6, 1.0, 8), rng.uniform(0.0, 0.4, 8))
    cube = values.astype(np.float32).reshape(2, 2, 2)
    assert_mesh_gathers_the_reference(
        cube, 0.5, origin=(3.0, -2.0, 7.5), spacing=(1, 2, 0.5)
    )


@settings(max_examples=80, deadline=None)
@given(fields, st.lists(isovalues, min_size=1, max_size=3), placements)
def test_random_fields_at_several_isovalues(scalars, levels, placement):
    origin, spacing = placement
    for isovalue in levels:
        assert_mesh_gathers_the_reference(scalars, isovalue)
        assert_mesh_gathers_the_reference(
            scalars, isovalue, origin=origin, spacing=spacing
        )


@pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
def test_blocks_that_split_inside_a_configuration_run(monkeypatch, block):
    # Faces are offset by each block's first vertex: small blocks cut
    # through runs of one configuration and through a single cube.
    g = np.linspace(-1, 1, 14, dtype=np.float32)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    scalars = -np.sqrt(X**2 + Y**2 + Z**2)
    monkeypatch.setattr(marching_cubes, "_BLOCK_CUBES", block)
    assert_mesh_gathers_the_reference(scalars, -0.7)


# -- one vertex per cut grid edge ---------------------------------------------
def cut_grid_edges(scalars, isovalue):
    """The grid edges the surface cuts, counted on the grid alone.

    The Kuhn edges of a grid step from a point p to p + d, d one of the 7
    positive (dz, dy, dx) steps; one is cut when exactly one of p and p + d
    is inside (its sample exceeds the isovalue; a NaN never does).
    """
    inside = np.asarray(scalars, dtype=np.float32) > isovalue
    nz, ny, nx = inside.shape
    return sum(
        np.count_nonzero(inside[: nz - dz, : ny - dy, : nx - dx] != inside[dz:, dy:, dx:])
        for dz in (0, 1)
        for dy in (0, 1)
        for dx in (0, 1)
        if dz or dy or dx
    )


def assert_one_vertex_per_cut_grid_edge(scalars, isovalue, **placement):
    vertices, faces = extract_mesh(scalars, isovalue, **placement)
    assert len(vertices) == cut_grid_edges(scalars, isovalue)
    # Each vertex is in use: none stands for an edge no triangle has.
    assert np.array_equal(np.unique(faces), np.arange(len(vertices)))


def test_one_vertex_per_cut_grid_edge_of_every_single_cube_configuration():
    for config in range(256):
        rng = np.random.default_rng(config)
        inside = np.array([(config >> c) & 1 for c in range(8)], dtype=bool)
        values = np.where(inside, rng.uniform(0.6, 1.0, 8), rng.uniform(0.0, 0.4, 8))
        cube = values.astype(np.float32).reshape(2, 2, 2)
        assert_one_vertex_per_cut_grid_edge(cube, 0.5, spacing=(1, 2, 0.5))


@settings(max_examples=80, deadline=None)
@given(fields, st.lists(isovalues, min_size=1, max_size=3), placements)
def test_one_vertex_per_cut_grid_edge_of_random_fields(scalars, levels, placement):
    origin, spacing = placement
    for isovalue in levels:
        assert_one_vertex_per_cut_grid_edge(scalars, isovalue, origin=origin, spacing=spacing)


@pytest.mark.parametrize("seed", range(4))
def test_one_vertex_per_cut_grid_edge_where_samples_equal_the_isovalue(seed):
    # A sample equal to the isovalue is outside, and each cut edge ending
    # there has t = 1: distinct edges meet at that grid point, with equal
    # bits, and each keeps its own vertex.
    rng = np.random.default_rng(seed)
    scalars = rng.choice(np.float32([0.25, 0.5, 0.75]), size=(7, 8, 9))
    vertices, _ = extract_mesh(scalars, 0.5)
    assert len(np.unique(vertices, axis=0)) < len(vertices)
    assert_one_vertex_per_cut_grid_edge(scalars, 0.5)
    assert_mesh_gathers_the_reference(scalars, 0.5)


# -- projecting through faces is projecting the soup --------------------------
# Meshes have V >= 2 vertices.  V = 1 is not drawn: NumPy's one-row matrix
# product takes another BLAS path, and the lone row may differ in its last
# bit from the same row inside the soup.  A non-empty mesh from Extract has
# at least 3 vertices, so Raster never projects one row alone.
@st.composite
def meshes(draw, dtype=np.float32):
    """Vertices around and behind the camera, some NaN, and faces that
    repeat."""
    nverts = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # The cameras below orbit a 9^3 grid from ~21 units out: the box holds
    # vertices behind the eye as well as in front of it.
    vertices = rng.uniform(-40, 50, size=(nverts, 3))
    vertices[rng.random(nverts) < 0.1] = np.nan
    vertices[rng.random(nverts) < 0.05, rng.integers(0, 3)] = np.nan
    corner = st.integers(0, nverts - 1)
    distinct = draw(st.lists(st.tuples(corner, corner, corner), min_size=1, max_size=30))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=45))
    faces = np.array(distinct, dtype=np.int32)[order]
    return vertices.astype(dtype), faces


cameras = st.builds(
    lambda azimuth, elevation, projection: dataclasses.replace(
        Camera.orbit((9, 9, 9), azimuth, elevation, width=WIDTH, height=HEIGHT),
        projection=projection,
    ),
    st.floats(0, 360),
    st.floats(-60, 80),
    st.sampled_from(["ortho", "persp"]),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(meshes(), meshes(np.float64)), cameras)
def test_projecting_through_faces_is_projecting_the_soup(mesh, camera):
    vertices, faces = mesh
    got_screen, got_kept = camera.project_and_cull(vertices, faces)
    want_screen, want_kept = camera.project_and_cull(np.take(vertices, faces, axis=0))
    assert got_screen.dtype == want_screen.dtype
    assert got_screen.shape == want_screen.shape
    assert got_screen.tobytes() == want_screen.tobytes()
    assert got_kept.tobytes() == want_kept.tobytes()


@settings(max_examples=80, deadline=None)
@given(meshes(), cameras, st.data())
def test_deferred_shading_through_faces_is_eager_shading_of_the_soup(
    mesh, camera, data
):
    vertices, faces = mesh
    soup = np.take(vertices, faces, axis=0)
    rows = np.flatnonzero(np.array(data.draw(
        st.lists(st.booleans(), min_size=len(faces), max_size=len(faces))
    )))
    eager = shade_triangles(soup[rows], (0.3, 0.2, 0.9))
    lazy = DeferredShading(vertices, rows, (0.3, 0.2, 0.9), faces=faces)
    assert len(lazy) == len(eager)
    if len(eager):
        index = np.array(data.draw(
            st.lists(st.integers(0, len(eager) - 1), min_size=1, max_size=20)
        ))
        assert lazy[index].tobytes() == eager[index].tobytes()
    # The whole chain: the z-buffer a mesh makes is the soup's.
    zbuffers = [ZBuffer(WIDTH, HEIGHT) for _ in range(2)]
    screen, kept = camera.project_and_cull(vertices, faces)
    zbuffers[0].rasterize(screen, DeferredShading(vertices, kept, faces=faces))
    screen, kept = camera.project_and_cull(soup)
    zbuffers[1].rasterize(screen, shade_triangles(soup[kept]))
    assert zbuffers[0].depth.tobytes() == zbuffers[1].depth.tobytes()
    assert zbuffers[0].color.tobytes() == zbuffers[1].color.tobytes()
