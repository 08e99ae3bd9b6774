"""Viewing transforms: world -> screen projection for the Raster filter.

The Raster filter "transforms triangles from world coordinates to viewing
coordinates (with respect to the viewing parameters)", projects them onto
the image plane and clips to screen boundaries (paper Section 3.1.2).
Orthographic projection is the default (depth comparisons stay linear);
perspective is available for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Camera"]


def fold_vertices(op: np.ufunc, per_vertex: np.ndarray) -> np.ndarray:
    """``op`` across the three vertex columns of an (N, 3) array."""
    return op(op(per_vertex[:, 0], per_vertex[:, 1]), per_vertex[:, 2])


@dataclass
class Camera:
    """A look-at camera with orthographic or perspective projection.

    Parameters
    ----------
    eye / target / up:
        Standard look-at parameters, world (x, y, z).
    width / height:
        Output image resolution in pixels.
    view_width:
        Orthographic: world units spanned by the image's horizontal axis
        (> 0).  Perspective: ignored.
    projection:
        ``"ortho"`` or ``"persp"``.
    fov_degrees:
        Perspective field of view (horizontal), in (0, 180).
    """

    eye: tuple[float, float, float]
    target: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 0.0, 1.0)
    width: int = 512
    height: int = 512
    view_width: float = 2.0
    projection: str = "ortho"
    fov_degrees: float = 60.0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("image dimensions must be >= 1")
        if self.projection not in ("ortho", "persp"):
            raise ConfigurationError(
                f"projection must be 'ortho' or 'persp', got {self.projection!r}"
            )
        # Written to refuse NaN too: 0 or NaN would blank the frame, a
        # negative width mirror it, and 180 degrees collapse it to a point.
        if not self.view_width > 0:
            raise ConfigurationError(f"view_width must be > 0, got {self.view_width}")
        if not 0 < self.fov_degrees < 180:
            raise ConfigurationError(
                f"fov_degrees must be in (0, 180), got {self.fov_degrees}"
            )
        eye = np.asarray(self.eye, dtype=np.float64)
        target = np.asarray(self.target, dtype=np.float64)
        forward = target - eye
        norm = np.linalg.norm(forward)
        if norm == 0:
            raise ConfigurationError("eye and target coincide")
        forward /= norm
        up = np.asarray(self.up, dtype=np.float64)
        right = np.cross(forward, up)
        rnorm = np.linalg.norm(right)
        if rnorm < 1e-12:
            raise ConfigurationError("up vector parallel to view direction")
        right /= rnorm
        true_up = np.cross(right, forward)
        # View matrix rows transform world offsets into camera coordinates
        # (x right, y up, z towards the viewer; depth = distance along
        # -forward increases away from the camera).
        self._rotation = np.stack([right, true_up, -forward])
        self._eye = eye

    # -- transforms --------------------------------------------------------
    def to_view(self, points: np.ndarray) -> np.ndarray:
        """World (N, 3) -> camera coordinates (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self._eye) @ self._rotation.T

    def project_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World (N, 3) -> ((N, 2) pixel coordinates, (N,) depth).

        Depth grows away from the camera; smaller wins the z-test.  Pixel
        (0, 0) is the top-left corner.
        """
        screen = self._screen(points)
        return screen[:, :2], screen[:, 2]

    def _screen(self, points: np.ndarray) -> np.ndarray:
        """World (N, 3) -> (N, 3) of (pixel x, pixel y, depth).

        Pixel x is ``(x / half_w + 1) * 0.5 * width``, pixel y
        ``(1 - y / half_h) * 0.5 * height`` and depth ``-z`` (perspective
        also divides x and y by depth).  Each column of the view-space
        array is overwritten by those operations in that order: the same
        bits as the expressions, with no temporaries.
        """
        screen = self.to_view(points)
        x, y, depth = screen[:, 0], screen[:, 1], screen[:, 2]
        np.negative(depth, out=depth)
        aspect = self.height / self.width
        if self.projection == "ortho":
            half_w = self.view_width / 2.0
            x /= half_w
            y /= half_w * aspect
        else:
            half_w = np.tan(np.radians(self.fov_degrees) / 2.0)
            safe = np.where(depth > 1e-9, depth, np.nan)
            x /= half_w * safe
            y /= half_w * aspect * safe
        x += 1.0
        x *= 0.5
        x *= self.width
        np.subtract(1.0, y, out=y)
        y *= 0.5
        y *= self.height
        return screen

    def project_triangles(self, triangles: np.ndarray) -> np.ndarray:
        """World triangles (N, 3, 3) -> screen triangles (M, 3, 3).

        Output columns per vertex: (pixel x, pixel y, depth).  Culled
        (M <= N): triangles with all three vertices behind the camera or
        entirely outside the viewport and, under perspective, triangles
        with any vertex at or behind the eye plane (it projects to NaN).
        Other partially visible triangles are kept — the rasterisers clip
        per pixel.
        """
        return self.project_and_cull(triangles)[0]

    def project_and_cull(
        self, triangles: np.ndarray, faces: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`project_triangles`, also returning kept indices.

        The indices select the surviving rows of the input, letting callers
        subset per-triangle attributes (colours) consistently.  Given
        ``faces`` (N, 3), ``triangles`` is an indexed mesh's (V, 3)
        vertices: each is projected once and the screen triangles are
        gathered through ``faces``.  A soup is the mesh whose faces are
        ``0 .. 3N-1``, so it needs no gather.  A row projects to the same
        bits wherever it sits among two or more rows, so a mesh gives its
        soup's bits; one row alone may not (NumPy's one-row product takes
        another BLAS path), and a mesh from Extract has at least three.
        """
        points = np.asarray(triangles, dtype=np.float64).reshape(-1, 3)
        if (len(points) if faces is None else len(faces)) == 0:
            return (
                np.empty((0, 3, 3), dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        screen = self._screen(points)
        if faces is None:
            screen = screen.reshape(-1, 3, 3)
        else:
            screen = np.take(screen, faces, axis=0)
        xs, ys, zs = screen[:, :, 0], screen[:, :, 1], screen[:, :, 2]
        # Vertex extremes as binary folds (a reduction along an axis of
        # length 3 costs ~15x as much).  They propagate NaN, so a NaN
        # fails every comparison below; an infinity fails the last one.
        xlo, xhi = fold_vertices(np.minimum, xs), fold_vertices(np.maximum, xs)
        ylo, yhi = fold_vertices(np.minimum, ys), fold_vertices(np.maximum, ys)
        zlo, zhi = fold_vertices(np.minimum, zs), fold_vertices(np.maximum, zs)
        front = zhi > 0
        onscreen = (xhi >= 0) & (xlo < self.width) & (yhi >= 0) & (ylo < self.height)
        lo = np.minimum(np.minimum(xlo, ylo), zlo)
        hi = np.maximum(np.maximum(xhi, yhi), zhi)
        keep = np.flatnonzero(front & onscreen & np.isfinite(lo) & np.isfinite(hi))
        if len(keep) == len(screen):
            return screen, keep
        return screen[keep], keep

    @classmethod
    def orbit(
        cls,
        shape: tuple[int, int, int],
        azimuth_deg: float = 30.0,
        elevation_deg: float = 25.0,
        width: int = 512,
        height: int = 512,
        margin: float = 1.1,
    ) -> "Camera":
        """A camera orbiting a (nz, ny, nx) grid's centre.

        Spherical angles instead of a raw direction vector — the view
        parametrisation ``repro serve`` exposes to queries: azimuth rotates
        about the world z axis (degrees, 0 = +x), elevation tilts up from
        the xy plane.  Framing matches :meth:`fit_grid`.
        """
        az = np.radians(azimuth_deg)
        el = np.radians(float(np.clip(elevation_deg, -89.0, 89.0)))
        direction = (
            float(np.cos(el) * np.cos(az)),
            float(np.cos(el) * np.sin(az)),
            float(np.sin(el)),
        )
        return cls.fit_grid(
            shape, width, height, direction=direction, margin=margin
        )

    @classmethod
    def fit_grid(
        cls,
        shape: tuple[int, int, int],
        width: int = 512,
        height: int = 512,
        direction: tuple[float, float, float] = (1.0, -0.6, 0.8),
        margin: float = 1.1,
    ) -> "Camera":
        """A camera framing a whole (nz, ny, nx) grid from ``direction``."""
        nz, ny, nx = shape
        center = ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)
        diag = float(np.linalg.norm([nx - 1, ny - 1, nz - 1]))
        d = np.asarray(direction, dtype=np.float64)
        d /= np.linalg.norm(d)
        eye = tuple(np.asarray(center) + d * diag * 1.5)
        return cls(
            eye=eye,
            target=center,
            width=width,
            height=height,
            view_width=diag * margin,
        )
