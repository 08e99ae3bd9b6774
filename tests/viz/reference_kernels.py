"""Sequential reference kernels — test-only.

These are the interpreter loops the production kernels replaced, kept as
the executable definition of what those kernels must compute, bit for bit:

- :class:`SequentialActivePixelRaster` — Winning Pixel Array insertion one
  triangle at a time through a per-pixel index (the paper's Modified
  Scanline Array), fed by :func:`triangle_fragments`;
- :func:`triangle_fragments` — fragment generation one screen-space
  triangle at a time (the definition of ``rasterize_triangles``' output);
- :func:`extract_triangles_sequential` — marching cubes one cube
  configuration at a time, over :func:`cube_configs_sequential`'s bitmasks
  (one cube corner at a time).

Nothing under ``src/`` imports this module.
"""

import numpy as np

from repro.viz.active_pixel import WPABuffer
from repro.viz.marching_cubes import CORNER_OFFSETS, TRI_TABLE


_EMPTY_FRAGS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def triangle_fragments(
    tri: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise one screen-space triangle.

    Parameters
    ----------
    tri:
        (3, 3) array; per vertex (pixel x, pixel y, depth).
    width, height:
        Viewport bounds; fragments outside are clipped.

    Returns
    -------
    (pixels, depth): flat pixel indices (``y * width + x``) and their
    interpolated depths.  Fragments with non-positive depth (behind the
    camera) are dropped.
    """
    xs, ys, zs = tri[:, 0], tri[:, 1], tri[:, 2]
    x0 = max(0, int(np.floor(xs.min())))
    x1 = min(width - 1, int(np.ceil(xs.max())))
    y0 = max(0, int(np.floor(ys.min())))
    y1 = min(height - 1, int(np.ceil(ys.max())))
    if x0 > x1 or y0 > y1:
        return _EMPTY_FRAGS
    denom = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
    if abs(denom) < 1e-12:
        return _EMPTY_FRAGS  # degenerate (zero-area) triangle
    px = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
    py = np.arange(y0, y1 + 1, dtype=np.float64) + 0.5
    gx, gy = np.meshgrid(px, py)
    w0 = ((ys[1] - ys[2]) * (gx - xs[2]) + (xs[2] - xs[1]) * (gy - ys[2])) / denom
    w1 = ((ys[2] - ys[0]) * (gx - xs[2]) + (xs[0] - xs[2]) * (gy - ys[2])) / denom
    w2 = 1.0 - w0 - w1
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    if not inside.any():
        return _EMPTY_FRAGS
    depth = w0 * zs[0] + w1 * zs[1] + w2 * zs[2]
    inside &= depth > 0
    iy, ix = np.nonzero(inside)
    pixels = (iy + y0) * width + (ix + x0)
    return pixels.astype(np.int64), depth[inside]


class SequentialActivePixelRaster:
    """``ActivePixelRaster`` as a loop over triangles.

    The rule the vectorised kernel has to reproduce: a fragment whose pixel
    has no entry in the open WPA appends one (float32 depth, the triangle's
    colour); otherwise its *float64* depth is tested against the *stored
    float32* depth and, if strictly nearer, replaces depth and colour.  Two
    float64 depths that round to the same float32 therefore leave the
    colour of the last one that won the test, not of the nearer one.
    """

    def __init__(self, width: int, height: int, capacity_entries: int = 5461):
        self.width = width
        self.height = height
        self.capacity = capacity_entries
        npix = width * height
        self._msa = np.zeros(npix, dtype=np.int64)  # WPA index per pixel
        self._msa_gen = np.full(npix, -1, dtype=np.int64)
        self._gen = 0
        self._pix: list[np.ndarray] = []
        self._depth = np.empty(0, dtype=np.float32)
        self._color = np.empty((0, 3), dtype=np.uint8)
        self.fragments_tested = 0

    def process(self, triangles: np.ndarray, colors: np.ndarray) -> list[WPABuffer]:
        for tri, rgb in zip(np.asarray(triangles), colors):
            pixels, depth = triangle_fragments(tri, self.width, self.height)
            self.fragments_tested += pixels.size
            if pixels.size:
                self._add(pixels, depth, rgb)
        return self._emit()

    def _add(self, pixels: np.ndarray, depth: np.ndarray, rgb: np.ndarray) -> None:
        """Depth-test fragments of one triangle against the open WPA."""
        valid = self._msa_gen[pixels] == self._gen
        if valid.any():
            vdep = depth[valid]
            idx = self._msa[pixels[valid]]
            wins = vdep < self._depth[idx]
            if wins.any():
                widx = idx[wins]
                self._depth[widx] = vdep[wins]
                self._color[widx] = rgb
        new = ~valid
        if new.any():
            npx = pixels[new]
            count = len(self._depth)
            self._msa[npx] = np.arange(count, count + npx.size)
            self._msa_gen[npx] = self._gen
            self._pix.append(npx)
            self._depth = np.concatenate([self._depth, depth[new].astype(np.float32)])
            self._color = np.concatenate(
                [self._color, np.broadcast_to(rgb, (npx.size, 3)).astype(np.uint8)]
            )

    def _emit(self) -> list[WPABuffer]:
        """Slice the open WPA into capacity-sized buffers and restart it."""
        pix = np.concatenate(self._pix) if self._pix else np.empty(0, dtype=np.int64)
        out = [
            WPABuffer(
                pix[start : start + self.capacity],
                self._depth[start : start + self.capacity],
                self._color[start : start + self.capacity],
            )
            for start in range(0, len(pix), self.capacity)
        ]
        self._pix = []
        self._depth = np.empty(0, dtype=np.float32)
        self._color = np.empty((0, 3), dtype=np.uint8)
        self._gen += 1
        return out


def cube_configs_sequential(scalars: np.ndarray, isovalue: float) -> np.ndarray:
    """Config bitmask per cube, one corner (bit) at a time."""
    nz, ny, nx = scalars.shape
    inside = scalars > isovalue
    cfg = np.zeros((nz - 1, ny - 1, nx - 1), dtype=np.uint16)
    for c in range(8):
        dx, dy, dz = CORNER_OFFSETS[c]
        view = inside[dz : dz + nz - 1, dy : dy + ny - 1, dx : dx + nx - 1]
        cfg |= view.astype(np.uint16) << c
    return cfg


def extract_triangles_sequential(
    scalars: np.ndarray,
    isovalue: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """``extract_triangles`` as a loop over the cube configurations present."""
    scalars = np.asarray(scalars, dtype=np.float32)
    cfg = cube_configs_sequential(scalars, isovalue)
    active_mask = (cfg != 0) & (cfg != 255)
    az, ay, ax = np.nonzero(active_mask)
    if az.size == 0:
        return np.empty((0, 3, 3), dtype=np.float32)
    cfg_active = cfg[az, ay, ax]

    origin = np.asarray(origin, dtype=np.float64)
    spacing = np.asarray(spacing, dtype=np.float64)

    pieces: list[np.ndarray] = []
    for config in np.unique(cfg_active):
        edges = TRI_TABLE[config]  # (T, 3, 2)
        if edges.size == 0:
            continue
        sel = cfg_active == config
        cz, cy, cx = az[sel], ay[sel], ax[sel]  # (M,)
        a = edges[:, :, 0].astype(np.int64)  # inside corners  (T, 3)
        b = edges[:, :, 1].astype(np.int64)  # outside corners (T, 3)
        # Scalar values at both corners of each edge: (M, T, 3).
        s_a = scalars[
            cz[:, None, None] + CORNER_OFFSETS[a, 2],
            cy[:, None, None] + CORNER_OFFSETS[a, 1],
            cx[:, None, None] + CORNER_OFFSETS[a, 0],
        ]
        s_b = scalars[
            cz[:, None, None] + CORNER_OFFSETS[b, 2],
            cy[:, None, None] + CORNER_OFFSETS[b, 1],
            cx[:, None, None] + CORNER_OFFSETS[b, 0],
        ]
        t = (isovalue - s_a) / (s_b - s_a)  # in (0, 1]; s_a > iso >= s_b
        # Corner positions in (x, y, z) grid units: (M, T, 3, 3).
        base = np.stack([cx, cy, cz], axis=-1)[:, None, None, :].astype(np.float64)
        pa = base + CORNER_OFFSETS[a][None, :, :, :]
        pb = base + CORNER_OFFSETS[b][None, :, :, :]
        verts = pa + t[..., None] * (pb - pa)
        verts = origin + verts * spacing
        pieces.append(verts.reshape(-1, 3, 3))
    if not pieces:
        return np.empty((0, 3, 3), dtype=np.float32)
    return np.concatenate(pieces, axis=0).astype(np.float32)
