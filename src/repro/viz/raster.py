"""Rasterisation: fragment generation and the classic z-buffer.

``rasterize_triangles`` turns screen-space triangles into covered pixels
with interpolated depth (barycentric, pixel-centre sampling, clipped to the
viewport).  It processes whole triangle soups per call by bucketing
triangles with equal clipped-bounding-box shapes into stacked grids, and
emits exactly the fragments the per-triangle reference kernel
(``triangle_fragments`` in ``tests/viz/reference_kernels.py``) emits, in
the same order.  :class:`ZBuffer` is the paper's first hidden-surface-removal
method: a dense per-pixel (depth, colour) array, filled during the local
rendering phase and shipped wholesale to the Merge filter at end-of-work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["rasterize_triangles", "ZBuffer", "ZBufferSlab"]

#: Bytes per z-buffer pixel on the wire: float32 depth + RGBX.
ZBUFFER_ENTRY_BYTES = 8


def rasterize_triangles(
    tris: np.ndarray, width: int, height: int, *, max_cells: int = 1 << 20
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterise a batch of screen-space triangles in bucketed grid stacks.

    Produces bit-identical fragments to calling the reference kernel
    (``tests/viz/reference_kernels.py::triangle_fragments``) per triangle:
    the coefficient arithmetic runs in the input dtype and the grid
    arithmetic in float64, exactly as the reference does, and fragments
    keep the reference's order (triangle by triangle, row-major within each
    triangle's bounding box).  Triangles whose clipped bounding boxes have
    equal shape are stacked into one (G, bh, bw) barycentric evaluation, so
    a soup of thousands of small triangles costs a handful of NumPy passes
    instead of thousands of per-triangle calls.

    Parameters
    ----------
    tris:
        (N, 3, 3) array; per triangle, per vertex (pixel x, pixel y, depth).
    width, height:
        Viewport bounds; fragments outside are clipped.
    max_cells:
        Cap on grid cells evaluated per stacked pass (memory bound; groups
        larger than this are chunked).

    Returns
    -------
    (pixels, depth, counts): flat pixel indices (``y * width + x``) and
    interpolated depths of every fragment, concatenated in triangle order,
    plus the per-triangle fragment count (``counts.sum() == len(pixels)``).
    Degenerate, fully clipped, and behind-camera cases contribute zero
    fragments, matching the reference.
    """
    pixels, depth, tri = _fragments(tris, width, height, max_cells)
    return pixels, depth, np.bincount(tri, minlength=len(tris))


def _fragments(
    tris: np.ndarray, width: int, height: int, max_cells: int = 1 << 20
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fragments of :func:`rasterize_triangles` with their triangles.

    Returns ``(pixels, depth, tri)`` in reference order, ``tri`` being the
    index of the triangle each fragment came from (non-decreasing).  The
    one fragment source of :class:`ZBuffer` and the active-pixel raster.
    """
    tris = np.asarray(tris)
    if tris.ndim != 3 or tris.shape[1:] != (3, 3):
        raise ConfigurationError(
            f"expected (N, 3, 3) triangle array, got shape {tris.shape}"
        )
    if len(tris) == 0:
        return _NO_FRAGS
    xs, ys, zs = tris[:, :, 0], tris[:, :, 1], tris[:, :, 2]
    # Clamp in float space before the integer cast so far-off-viewport
    # coordinates cannot overflow int64; the clip bounds leave every
    # empty-box comparison (x0 > x1 / y0 > y1) with its reference outcome.
    # (min/max over the three vertices as two binary ops: a reduction along
    # an axis of length 3 costs ~15x as much.)
    x0 = np.clip(np.floor(_fold(np.minimum, xs)), 0, width).astype(np.int64)
    x1 = np.clip(np.ceil(_fold(np.maximum, xs)), -1, width - 1).astype(np.int64)
    y0 = np.clip(np.floor(_fold(np.minimum, ys)), 0, height).astype(np.int64)
    y1 = np.clip(np.ceil(_fold(np.maximum, ys)), -1, height - 1).astype(np.int64)
    # Coefficients in the *input* dtype, like the reference's scalar maths;
    # they promote to float64 only when they meet the pixel-centre grids.
    a0 = ys[:, 1] - ys[:, 2]
    b0 = xs[:, 2] - xs[:, 1]
    a1 = ys[:, 2] - ys[:, 0]
    b1 = xs[:, 0] - xs[:, 2]
    denom = a0 * (xs[:, 0] - xs[:, 2]) + b0 * (ys[:, 0] - ys[:, 2])
    live = np.flatnonzero((x0 <= x1) & (y0 <= y1) & ~(np.abs(denom) < 1e-12))
    if not live.size:
        return _NO_FRAGS
    # Group live triangles by clipped-box shape with one stable sort of a
    # packed (bh, bw) key: members of a group stay in triangle order, and
    # the order of the groups is free (see the final sort).
    key = (y1[live] - y0[live] + 1) * (width + 1) + (x1[live] - x0[live] + 1)
    by_shape = np.argsort(key, kind="stable")
    live, key = live[by_shape], key[by_shape]
    starts = _run_starts(key)
    # Per-triangle terms in group order, so a group is a slice of each.
    x0, y0 = x0[live], y0[live]
    terms = [x0, y0, xs[live, 2], ys[live, 2], a0[live], b0[live], a1[live], b1[live]]
    terms += [denom[live], zs[live, 0], zs[live, 1], zs[live, 2]]
    terms = [t.astype(np.float64) for t in terms]

    frag_tri: list[np.ndarray] = []
    frag_pix: list[np.ndarray] = []
    frag_dep: list[np.ndarray] = []
    for start, stop in zip(starts, np.append(starts[1:], len(live))):
        bh, bw = divmod(int(key[start]), width + 1)
        step = max(1, max_cells // (bh * bw))
        offx = (np.arange(bw, dtype=np.float64) + 0.5)[None, None, :]
        offy = (np.arange(bh, dtype=np.float64) + 0.5)[None, :, None]
        for lo in range(start, stop, step):
            x0f, y0f, x2, y2, ca0, cb0, ca1, cb1, den, z0, z1, z2 = (
                t[lo : min(lo + step, stop), None, None] for t in terms
            )
            # Pixel-centre grids: integer x0 plus exact half-integers —
            # bit-equal to the reference's arange(x0, x1 + 1) + 0.5.
            dx = (x0f + offx) - x2
            dy = (y0f + offy) - y2
            w0 = (ca0 * dx + cb0 * dy) / den
            w1 = (ca1 * dx + cb1 * dy) / den
            w2 = 1.0 - w0 - w1
            inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
            depth = w0 * z0 + w1 * z1 + w2 * z2
            inside &= depth > 0
            g, iy, ix = np.nonzero(inside)
            if not g.size:
                continue
            g += lo
            frag_tri.append(live[g])
            frag_pix.append((iy + y0[g]) * width + (ix + x0[g]))
            frag_dep.append(depth[inside])
    if not frag_tri:
        return _NO_FRAGS
    tri = np.concatenate(frag_tri)
    pixels = np.concatenate(frag_pix)
    depth = np.concatenate(frag_dep)
    # Bucket processing visits triangles out of order; a stable sort on the
    # triangle index restores reference order end to end (within a triangle
    # each bucket already emitted row-major).
    order = np.argsort(tri, kind="stable")
    return pixels[order], depth[order], tri[order]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values (non-empty input)."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _fold(op: np.ufunc, per_vertex: np.ndarray) -> np.ndarray:
    """``op`` across the three vertex columns of an (N, 3) array."""
    return op(op(per_vertex[:, 0], per_vertex[:, 1]), per_vertex[:, 2])


_NO_FRAGS = (np.empty(0, np.int64), np.empty(0, np.float64), np.empty(0, np.int64))


@dataclass
class ZBufferSlab:
    """A contiguous z-buffer range on the wire (one merge-stream buffer)."""

    start: int  # first flat pixel index
    depth: np.ndarray  # (n,) float32
    color: np.ndarray  # (n, 3) uint8

    @property
    def nbytes(self) -> int:
        """Wire size: one entry per pixel regardless of activity."""
        return len(self.depth) * ZBUFFER_ENTRY_BYTES


class ZBuffer:
    """Dense per-pixel hidden-surface removal (paper Section 3.1.2).

    The (depth, colour) pair at each pixel holds the foremost fragment seen
    so far; ``merge`` combines buffers from transparent raster copies.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ConfigurationError("z-buffer dimensions must be >= 1")
        self.width = width
        self.height = height
        self.depth = np.full(width * height, np.inf, dtype=np.float32)
        self.color = np.zeros((width * height, 3), dtype=np.uint8)
        self.fragments_tested = 0
        self.fragments_won = 0

    @property
    def total_bytes(self) -> int:
        """Wire size of the full buffer."""
        return self.width * self.height * ZBUFFER_ENTRY_BYTES

    def rasterize(self, triangles: np.ndarray, colors: np.ndarray) -> None:
        """Rasterise screen-space triangles (N, 3, 3) with (N, 3) colours.

        Fragments come from the batched :func:`rasterize_triangles` kernel
        and are reduced per pixel in one pass: the foremost fragment of the
        call (float64 depth, lowest triangle index on exact ties — the
        sequential loop's first-writer-wins) is depth-tested against the
        buffer.  This matches processing the triangles one by one except
        when two fragments' depths differ by less than one float32 ulp,
        where the old loop's intermediate float32 stores could keep either;
        ``fragments_won`` counts pixels improved per call rather than every
        intermediate overwrite.
        """
        triangles = np.asarray(triangles)
        if triangles.size == 0:
            return
        if len(colors) != len(triangles):
            raise ConfigurationError("one colour per triangle required")
        pixels, depth, tri_idx = _fragments(triangles, self.width, self.height)
        if pixels.size == 0:
            return
        self.fragments_tested += pixels.size
        # lexsort is stable and fragments arrive in triangle order, so the
        # lowest triangle index leads each (pixel, depth) tie.
        order = np.lexsort((depth, pixels))
        cand = order[_run_starts(pixels[order])]
        cand_pix = pixels[cand]
        cand_depth = depth[cand]
        wins = cand_depth < self.depth[cand_pix]
        if wins.any():
            won = cand_pix[wins]
            self.depth[won] = cand_depth[wins]
            self.color[won] = np.asarray(colors)[tri_idx[cand[wins]]]
            self.fragments_won += int(wins.sum())

    def merge_entries(
        self, pixels: np.ndarray, depth: np.ndarray, color: np.ndarray
    ) -> None:
        """Depth-test sparse entries (unique pixel indices) into the buffer."""
        wins = depth < self.depth[pixels]
        if wins.any():
            won = pixels[wins]
            self.depth[won] = depth[wins]
            self.color[won] = color[wins]

    def merge_slab(self, slab: ZBufferSlab) -> None:
        """Depth-merge a contiguous slab (z-buffer pixel-merging phase)."""
        sl = slice(slab.start, slab.start + len(slab.depth))
        wins = slab.depth < self.depth[sl]
        if wins.any():
            self.depth[sl][wins] = slab.depth[wins]
            self.color[sl][wins] = slab.color[wins]

    def merge(self, other: "ZBuffer") -> None:
        """Depth-merge another full z-buffer of the same size."""
        if (other.width, other.height) != (self.width, self.height):
            raise ConfigurationError("z-buffer size mismatch")
        wins = other.depth < self.depth
        self.depth[wins] = other.depth[wins]
        self.color[wins] = other.color[wins]

    def slabs(self, entries_per_buffer: int) -> list[ZBufferSlab]:
        """Serialise the whole buffer into fixed-size contiguous slabs.

        This is what a z-buffer raster copy sends at end-of-work: *every*
        pixel, active or not (the paper notes the resulting communication
        overhead).
        """
        if entries_per_buffer < 1:
            raise ConfigurationError("entries_per_buffer must be >= 1")
        out = []
        total = self.width * self.height
        for start in range(0, total, entries_per_buffer):
            stop = min(start + entries_per_buffer, total)
            out.append(
                ZBufferSlab(
                    start,
                    self.depth[start:stop].copy(),
                    self.color[start:stop].copy(),
                )
            )
        return out

    def active_pixels(self) -> int:
        """Pixels with at least one fragment written."""
        return int(np.isfinite(self.depth).sum())

    def image(self) -> np.ndarray:
        """The colour image, (height, width, 3) uint8."""
        return self.color.reshape(self.height, self.width, 3)
