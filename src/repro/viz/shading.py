"""Triangle shading: flat Lambertian lighting for the Raster filter.

The paper's raster filter performs "shading of triangles to produce a
realistic image".  We shade per triangle (flat shading): two-sided
Lambertian illumination from a directional light plus an ambient floor,
modulating a base material colour.

Shading is per triangle, so the colours of any rows are the rows of the
colours: :class:`DeferredShading` uses that to shade, at the depth test,
only the triangles that win a pixel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["triangle_normals", "shade_triangles", "DeferredShading"]


def triangle_normals(triangles: np.ndarray) -> np.ndarray:
    """Unit face normals of world-space triangles (N, 3, 3) -> (N, 3).

    Degenerate triangles get a zero normal (they shade as ambient-only and
    rasterise to nothing).
    """
    tris = np.asarray(triangles, dtype=np.float64)
    if tris.size == 0:
        return np.empty((0, 3), dtype=np.float64)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    n = np.cross(e1, e2)
    length = np.linalg.norm(n, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(length > 1e-20, n / length, 0.0)
    return unit


def shade_triangles(
    triangles: np.ndarray,
    light_direction: tuple[float, float, float] = (0.4, -0.5, 0.8),
    base_color: tuple[int, int, int] = (90, 160, 230),
    ambient: float = 0.25,
) -> np.ndarray:
    """Flat-shade triangles; returns (N, 3) uint8 RGB per triangle.

    Lighting is two-sided (``|n . l|``) so surface orientation does not
    matter — transparent filter copies process triangles in arbitrary
    order and subsets, so shading must not depend on winding conventions.
    """
    if not 0.0 <= ambient <= 1.0:
        raise ConfigurationError(f"ambient must be in [0, 1], got {ambient}")
    light = np.asarray(light_direction, dtype=np.float64)
    norm = np.linalg.norm(light)
    if norm == 0:
        raise ConfigurationError("light direction must be non-zero")
    light = light / norm  # a new array: the caller's direction stays as given
    normals = triangle_normals(triangles)
    lambert = np.abs(normals @ light)
    intensity = ambient + (1.0 - ambient) * lambert
    base = np.asarray(base_color, dtype=np.float64)
    rgb = np.clip(intensity[:, None] * base[None, :], 0, 255)
    return rgb.astype(np.uint8)


class DeferredShading:
    """The (N, 3) uint8 colours of some world triangles, shaded when indexed.

    ``colors[index]`` is ``shade_triangles(triangles[rows])[index]`` byte
    for byte (shading is per row), but shades only the indexed rows.  The
    rasterisers read colours only at the triangles that won a pixel, so a
    Raster filter hands them this instead of shading every triangle.

    Parameters
    ----------
    triangles:
        World-space triangles (M, 3, 3), or with ``faces`` the (V, 3)
        vertices of an indexed mesh.
    rows:
        The (N,) rows of ``triangles`` (of ``faces``) that colours
        ``0 .. N-1`` belong to (the cull's kept indices).
    light_direction:
        As for :func:`shade_triangles`.
    faces:
        The mesh's (M, 3) vertex rows, one row per triangle: the winners'
        world triangles are gathered through them.
    """

    def __init__(
        self,
        triangles: np.ndarray,
        rows: np.ndarray,
        light_direction: tuple[float, float, float] = (0.4, -0.5, 0.8),
        faces: "np.ndarray | None" = None,
    ):
        self._triangles = triangles
        self._rows = rows
        self._light = light_direction
        self._faces = faces

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        rows = self._rows[index]
        if self._faces is None:
            picked = np.take(self._triangles, rows, axis=0)
        else:
            corners = np.take(self._faces, rows, axis=0)
            picked = np.take(self._triangles, corners, axis=0)
        return shade_triangles(picked, light_direction=self._light)
