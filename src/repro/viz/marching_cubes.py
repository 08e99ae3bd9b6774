"""Isosurface extraction on rectilinear grids.

The paper uses the marching cubes algorithm [23] in the Extract filter.  We
implement cube-wise table-driven extraction where the 256-case triangle
table is *derived at import time* from the Kuhn six-tetrahedra decomposition
of the cube (marching tetrahedra within each cube).  This produces a
watertight, case-table-complete isosurface with the same per-voxel access
pattern and pipeline behaviour as classic marching cubes; it emits somewhat
more triangles per surface cell (tetrahedral cases split quads), which the
cost models absorb in their per-triangle constants.  Deriving the table
programmatically keeps it provably consistent (no hand-typed 256x16 array)
and is validated by property tests.

Corner numbering: bit0 = +x, bit1 = +y, bit2 = +z, so corner ``c`` sits at
``(x, y, z) = (c & 1, (c >> 1) & 1, (c >> 2) & 1)``.  A corner is *inside*
when its scalar exceeds the isovalue.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = [
    "extract_triangles", "triangle_count", "range_excludes", "TRI_TABLE",
    "CORNER_OFFSETS",
]

#: (8, 3) integer offsets of cube corners, columns (x, y, z).
CORNER_OFFSETS = np.array(
    [[(c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1] for c in range(8)], dtype=np.int64
)

# Kuhn decomposition: six tetrahedra around the 0-7 diagonal, one per
# permutation of the coordinate axes.  Compatible across adjacent cubes.
_TETS = (
    (0, 1, 3, 7),  # x, y, z
    (0, 1, 5, 7),  # x, z, y
    (0, 2, 3, 7),  # y, x, z
    (0, 2, 6, 7),  # y, z, x
    (0, 4, 5, 7),  # z, x, y
    (0, 4, 6, 7),  # z, y, x
)


def _tet_triangles(inside: tuple[bool, ...], tet: tuple[int, int, int, int]):
    """Triangles for one tetrahedron as (inside_corner, outside_corner) edges."""
    ins = [v for v in tet if inside[v]]
    outs = [v for v in tet if not inside[v]]
    if not ins or not outs:
        return []
    if len(ins) == 1:
        v = ins[0]
        return [((v, outs[0]), (v, outs[1]), (v, outs[2]))]
    if len(ins) == 3:
        o = outs[0]
        return [((ins[0], o), (ins[1], o), (ins[2], o))]
    # Two inside, two outside: a quad split into two triangles.
    i1, i2 = ins
    o1, o2 = outs
    return [
        ((i1, o1), (i1, o2), (i2, o2)),
        ((i1, o1), (i2, o2), (i2, o1)),
    ]


def _build_table() -> list[np.ndarray]:
    """TRI_TABLE[config] -> (ntri, 3, 2) int8 array of (in, out) corner pairs."""
    table: list[np.ndarray] = []
    for config in range(256):
        inside = tuple(bool(config >> c & 1) for c in range(8))
        tris = []
        for tet in _TETS:
            tris.extend(_tet_triangles(inside, tet))
        if tris:
            table.append(np.array(tris, dtype=np.int8))
        else:
            table.append(np.empty((0, 3, 2), dtype=np.int8))
    return table


TRI_TABLE = _build_table()

#: triangles emitted per configuration (diagnostics / cost estimation)
_TRIS_PER_CONFIG = np.array([t.shape[0] for t in TRI_TABLE], dtype=np.int64)

# TRI_TABLE flattened, configuration after configuration: per triangle the
# (inside, outside) corner numbers of its three edges (T, 3), the same
# corners as (x, y, z) offsets (T, 3, 3), and each configuration's first row.
_EDGE_INSIDE, _EDGE_OUTSIDE = np.moveaxis(np.concatenate(TRI_TABLE).astype(np.int64), 2, 0)
_INSIDE_XYZ, _OUTSIDE_XYZ = CORNER_OFFSETS[_EDGE_INSIDE], CORNER_OFFSETS[_EDGE_OUTSIDE]
_CONFIG_START = np.cumsum(_TRIS_PER_CONFIG) - _TRIS_PER_CONFIG

#: Triangles interpolated per pass of :func:`extract_triangles`.  A pass
#: holds about a dozen (B, 3, 3) float64/int64 temporaries (~1 KB per
#: triangle), so blocks keep them at ~2 MB whatever the chunk yields —
#: serve front-end threads extract concurrently — at no cost in speed.
_BLOCK_TRIANGLES = 2048


def _inside(scalars: np.ndarray, isovalue: float) -> np.ndarray:
    """Which samples are inside the surface: the kernel's one comparison."""
    return scalars > isovalue


def range_excludes(
    value_range: "tuple[float, float] | None", isovalue: float
) -> bool:
    """Whether a grid with this value range cannot yield a triangle.

    ``value_range`` is the ``(min, max)`` of the grid's float32 samples, or
    ``None`` when nobody recorded it (nothing is excluded then).  A
    triangle needs a cube with one corner inside and one outside, so there
    is none when the smallest sample is inside (all are) or the largest is
    not (none is).  The bounds are classified by :func:`_inside` as float32
    like the samples, so an isovalue that reaches a sample only after
    rounding to float32 is judged here exactly as the kernel judges it.
    The minimum and maximum of a grid with a NaN sample are NaN: such a
    sample is outside but bounds nothing, and the grid is not excluded.
    """
    if value_range is None:
        return False
    bounds = np.array(value_range, dtype=np.float32)
    lo_inside, hi_inside = _inside(bounds, isovalue)
    return bool(lo_inside or not (hi_inside or np.isnan(bounds[1])))


def _cube_configs(scalars: np.ndarray, isovalue: float) -> np.ndarray:
    """Config bitmask per cube for a (nz, ny, nx) scalar grid."""
    if scalars.ndim != 3:
        raise DataError(f"scalars must be 3-D, got shape {scalars.shape}")
    nz, ny, nx = scalars.shape
    if nz < 2 or ny < 2 or nx < 2:
        raise DataError(f"grid too small for cubes: {scalars.shape}")
    # Corner c is bit c and sits at (c & 1, c >> 1 & 1, c >> 2 & 1): fold
    # the +x neighbour in as bit 0 -> 1, then +y as bits 0-1 -> 2-3, then +z.
    inside = _inside(scalars, isovalue).astype(np.uint16)
    along_x = inside[:, :, :-1] | (inside[:, :, 1:] << 1)
    along_xy = along_x[:, :-1] | (along_x[:, 1:] << 2)
    return along_xy[:-1] | (along_xy[1:] << 4)


def triangle_count(scalars: np.ndarray, isovalue: float) -> int:
    """Number of triangles :func:`extract_triangles` would emit.

    Much cheaper than extraction; used for dataset profiling.
    """
    cfg = _cube_configs(scalars, isovalue)
    return int(_TRIS_PER_CONFIG[cfg.ravel()].sum())


def extract_triangles(
    scalars: np.ndarray,
    isovalue: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """Extract the isosurface of a scalar grid.

    Parameters
    ----------
    scalars:
        (nz, ny, nx) scalar field (grid points).
    isovalue:
        Surface level; a corner is inside when ``scalar > isovalue``.
    origin / spacing:
        World-space placement: grid point (z, y, x) maps to world
        ``origin + (x, y, z) * spacing`` — both given in (x, y, z) order.

    Returns
    -------
    (N, 3, 3) float32 array: N triangles, 3 vertices, (x, y, z) world
    coordinates.  Every vertex lies on a cube/tetrahedron edge where linear
    interpolation of the endpoint scalars equals ``isovalue``.
    """
    scalars = np.asarray(scalars, dtype=np.float32)
    cfg = _cube_configs(scalars, isovalue).reshape(-1)
    active = np.flatnonzero((cfg != 0) & (cfg != 255))
    # Configuration-ascending, cubes of one configuration in grid order,
    # the triangles of a cube in table order: the order of the output.
    by_config = np.argsort(cfg[active], kind="stable")
    active = active[by_config]
    cfg = cfg[active]
    nz, ny, nx = scalars.shape
    az, rest = np.divmod(active, (ny - 1) * (nx - 1))
    ay, ax = np.divmod(rest, nx - 1)
    corner0 = np.stack([ax, ay, az], axis=-1)  # (M, 3): cube origins as (x, y, z)
    per_cube = _TRIS_PER_CONFIG[cfg]
    first = np.cumsum(per_cube) - per_cube  # first output triangle per cube
    total = int(per_cube.sum())
    cube = np.repeat(np.arange(len(per_cube)), per_cube)  # (N,) cube per triangle
    row = np.arange(total) + (_CONFIG_START[cfg] - first)[cube]  # (N,) edge-table row

    # Scalars are gathered through flat grid-point indices.
    flat = scalars.reshape(-1)
    point_stride = np.array([1, nx, nx * ny])
    corner0_flat = corner0 @ point_stride
    corner_flat = CORNER_OFFSETS @ point_stride
    origin = np.asarray(origin, dtype=np.float64)
    spacing = np.asarray(spacing, dtype=np.float64)
    out = np.empty((total, 3, 3), dtype=np.float32)
    for lo in range(0, total, _BLOCK_TRIANGLES):
        cubes, rows = cube[lo : lo + _BLOCK_TRIANGLES], row[lo : lo + _BLOCK_TRIANGLES]
        # Scalar values at both corners of each edge: (B, 3).
        s_a = flat[corner0_flat[cubes, None] + corner_flat[_EDGE_INSIDE[rows]]]
        s_b = flat[corner0_flat[cubes, None] + corner_flat[_EDGE_OUTSIDE[rows]]]
        t = (isovalue - s_a) / (s_b - s_a)  # in (0, 1]; s_a > iso >= s_b
        # Corner positions in (x, y, z) grid units: (B, 3, 3).
        base = corner0[cubes][:, None, :]
        pa = (base + _INSIDE_XYZ[rows]).astype(np.float64)
        pb = (base + _OUTSIDE_XYZ[rows]).astype(np.float64)
        out[lo : lo + _BLOCK_TRIANGLES] = origin + (pa + t[..., None] * (pb - pa)) * spacing
    return out
