"""Tests for isosurface extraction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import DataError
from repro.viz.marching_cubes import (
    CORNER_OFFSETS,
    TRI_TABLE,
    extract_triangles,
    range_excludes,
    triangle_count,
)


def sphere_field(n=25, radius=0.7):
    g = np.linspace(-1, 1, n, dtype=np.float32)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    return -np.sqrt(X**2 + Y**2 + Z**2), -radius  # inside where r < radius


def tri_area(tris):
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1).sum()


def test_table_structure():
    assert len(TRI_TABLE) == 256
    assert TRI_TABLE[0].shape[0] == 0
    assert TRI_TABLE[255].shape[0] == 0
    assert max(t.shape[0] for t in TRI_TABLE) <= 12
    # Complementary configs produce the same number of triangles.
    for cfg in range(256):
        assert TRI_TABLE[cfg].shape[0] == TRI_TABLE[255 - cfg].shape[0]


def test_table_edges_cross_the_surface():
    # Every stored edge pairs an inside corner with an outside corner.
    for cfg in range(256):
        inside = [(cfg >> c) & 1 for c in range(8)]
        for tri in TRI_TABLE[cfg]:
            for a, b in tri:
                assert inside[a] == 1 and inside[b] == 0


def test_corner_offsets():
    assert CORNER_OFFSETS.shape == (8, 3)
    assert CORNER_OFFSETS[0].tolist() == [0, 0, 0]
    assert CORNER_OFFSETS[7].tolist() == [1, 1, 1]


def test_empty_field_no_triangles():
    S = np.zeros((5, 5, 5), dtype=np.float32)
    assert len(extract_triangles(S, 0.5)) == 0
    assert triangle_count(S, 0.5) == 0


def test_full_field_no_triangles():
    S = np.ones((5, 5, 5), dtype=np.float32)
    assert len(extract_triangles(S, 0.5)) == 0


def test_planar_surface_exact():
    nz, ny, nx = 6, 5, 7
    S = np.broadcast_to(
        np.arange(nz, dtype=np.float32)[:, None, None], (nz, ny, nx)
    ).copy()
    tris = extract_triangles(S, 2.5)
    assert len(tris) > 0
    np.testing.assert_allclose(tris[:, :, 2], 2.5, atol=1e-6)
    assert tri_area(tris) == pytest.approx((nx - 1) * (ny - 1))


def test_planar_surface_offset_interpolation():
    # Plane at z = 2.25 (interpolated a quarter of the way up a cell).
    S = np.broadcast_to(
        np.arange(6, dtype=np.float32)[:, None, None], (6, 6, 6)
    ).copy()
    tris = extract_triangles(S, 2.25)
    np.testing.assert_allclose(tris[:, :, 2], 2.25, atol=1e-6)


def test_sphere_area_close_to_analytic():
    S, iso = sphere_field(n=33, radius=0.7)
    tris = extract_triangles(S, iso)
    r_grid = 0.7 / (2 / 32)  # radius in grid units
    expected = 4 * np.pi * r_grid**2
    assert tri_area(tris) == pytest.approx(expected, rel=0.01)


def test_triangle_count_matches_extraction():
    S, iso = sphere_field(n=17)
    assert triangle_count(S, iso) == len(extract_triangles(S, iso))


def test_origin_and_spacing_applied():
    S, iso = sphere_field(n=9)
    base = extract_triangles(S, iso)
    shifted = extract_triangles(S, iso, origin=(10.0, 20.0, 30.0))
    np.testing.assert_allclose(
        shifted, base + np.array([10.0, 20.0, 30.0]), atol=1e-4
    )
    scaled = extract_triangles(S, iso, spacing=(2.0, 2.0, 2.0))
    np.testing.assert_allclose(scaled, base * 2.0, atol=1e-4)


def test_chunked_extraction_matches_whole_grid():
    # Extract per overlapping chunk; triangle multiset must match the whole
    # grid's (the declustered pipeline invariant).
    from repro.data.chunks import partition_grid

    S, iso = sphere_field(n=17)
    whole = extract_triangles(S, iso)
    pieces = []
    for chunk in partition_grid(S.shape, (2, 2, 2), overlap=1):
        sub = S[chunk.slices()]
        origin = (
            float(chunk.start[2]),
            float(chunk.start[1]),
            float(chunk.start[0]),
        )
        t = extract_triangles(sub, iso, origin=origin)
        if len(t):
            pieces.append(t)
    combined = np.concatenate(pieces)
    assert len(combined) == len(whole)
    # Compare as sorted centroid sets.
    ca = np.sort(whole.mean(axis=1), axis=0)
    cb = np.sort(combined.mean(axis=1), axis=0)
    np.testing.assert_allclose(ca, cb, atol=1e-4)


def test_vertices_lie_within_active_cells():
    S, iso = sphere_field(n=13)
    tris = extract_triangles(S, iso)
    n = S.shape[0]
    assert tris.min() >= 0.0
    assert tris.max() <= n - 1


def test_small_grid_rejected():
    with pytest.raises(DataError):
        extract_triangles(np.zeros((1, 5, 5), dtype=np.float32), 0.5)
    with pytest.raises(DataError):
        extract_triangles(np.zeros((5, 5), dtype=np.float32), 0.5)


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_property_watertight_closed_surfaces(seed):
    # Random smooth blob: the extracted surface of a field that is entirely
    # below iso at the grid boundary must be closed -> every boundary edge
    # of the triangle soup is shared by an even number of triangles.
    rng = np.random.default_rng(seed)
    n = 9
    g = np.linspace(-1, 1, n, dtype=np.float32)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    cz, cy, cx = rng.uniform(-0.3, 0.3, size=3)
    r = rng.uniform(0.3, 0.6)
    S = r - np.sqrt((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2)
    tris = extract_triangles(S, 0.0)
    if len(tris) == 0:
        return
    # Quantise vertices; count edge occurrences.
    q = np.round(tris * 4096).astype(np.int64)
    edges = {}
    for tri in q:
        for i in range(3):
            a = tuple(tri[i])
            b = tuple(tri[(i + 1) % 3])
            if a == b:
                continue  # degenerate edge; skip
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    odd = [k for k, v in edges.items() if v % 2]
    assert not odd, f"{len(odd)} boundary edges on a closed surface"


def test_anisotropic_spacing():
    S, iso = sphere_field(n=9)
    base = extract_triangles(S, iso)
    stretched = extract_triangles(S, iso, spacing=(1.0, 2.0, 4.0))
    np.testing.assert_allclose(stretched[:, :, 0], base[:, :, 0], atol=1e-4)
    np.testing.assert_allclose(stretched[:, :, 1], base[:, :, 1] * 2.0, atol=1e-4)
    np.testing.assert_allclose(stretched[:, :, 2], base[:, :, 2] * 4.0, atol=1e-4)


def test_isovalue_monotonicity_on_sphere():
    # Smaller radius (higher iso on -r field) -> fewer triangles.
    S, _ = sphere_field(n=21, radius=0.7)
    big = triangle_count(S, -0.8)
    small = triangle_count(S, -0.3)
    assert small < big


# -- the value-range rule ------------------------------------------------------
_AWKWARD = [0.0, -0.0, 0.4, 1.0, float("inf"), float("-inf"), float("nan")]
_SAMPLES = st.sampled_from(_AWKWARD) | st.floats(width=32)
_FIELDS = hnp.arrays(
    np.float32,
    st.tuples(*[st.integers(2, 4)] * 3),
    elements=_SAMPLES,
    fill=_SAMPLES,  # mostly-constant and constant grids
)


@st.composite
def _field_and_isovalue(draw):
    """A float32 grid and an isovalue that is likely to sit on a sample."""
    field = draw(_FIELDS)
    sample = float(draw(st.sampled_from(field.ravel().tolist())))
    with np.errstate(over="ignore"):  # the neighbours of the largest float32
        near = [
            sample,
            # other float64 numbers that are this sample as float32
            float(np.nextafter(sample, np.inf)),
            float(np.nextafter(sample, -np.inf)),
            # its float32 neighbours
            float(np.nextafter(np.float32(sample), np.float32(np.inf))),
            float(np.nextafter(np.float32(sample), np.float32(-np.inf))),
        ]
    isovalue = draw(
        st.sampled_from(near)
        | st.sampled_from(_AWKWARD)
        | st.floats(min_value=-3e38, max_value=3e38)
    )
    return field, isovalue


@given(_field_and_isovalue())
@example((np.full((2, 2, 2), 0.4, np.float32), 0.4))  # 0.4 < float32(0.4)
@example((np.full((2, 2, 2), 0.4, np.float32), float(np.float32(0.4))))
@example((np.array([0.0, -0.0] * 4, np.float32).reshape(2, 2, 2), 0.0))
@example((np.array([np.nan] + [1.0] * 7, np.float32).reshape(2, 2, 2), 0.5))
@example((np.array([np.inf] * 4 + [-np.inf] * 4, np.float32).reshape(2, 2, 2), 0.0))
@settings(max_examples=400, deadline=None)
def test_property_excluded_range_means_no_triangle(case):
    """Whenever the rule rules a grid out, the kernel finds nothing in it —
    and on a grid of numbers it rules out every grid the kernel finds
    nothing in (a grid with both sides has a cube with both)."""
    field, isovalue = case
    value_range = (float(field.min()), float(field.max()))  # as the store records
    with np.errstate(all="ignore"):  # inf - inf, an isovalue past float32
        count = triangle_count(field, isovalue)
        assert len(extract_triangles(field, isovalue)) == count
        excluded = range_excludes(value_range, isovalue)
    if excluded:
        assert count == 0
    elif not np.isnan(field).any():
        assert count > 0


def test_a_grid_without_a_recorded_range_is_never_excluded():
    assert range_excludes(None, 0.5) is False
    assert range_excludes((0.0, 1.0), 2.0) is True
