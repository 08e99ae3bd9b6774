"""Active pixel rendering: the sparse z-buffer scheme (paper Section 3.1.2).

Two structures implement hidden-surface removal:

- the **Winning Pixel Array (WPA)** stores the foremost pixels seen so far —
  screen position, depth, and colour per entry; WPA contents are shipped to
  the Merge filter in fixed-size buffers;
- the **Modified Scanline Array (MSA)** indexes the WPA by screen position
  so a new fragment can find (and depth-test against) the current winning
  entry for its pixel.

As in the paper, the WPA is emitted *when full or when all triangles of the
current input buffer have been processed*, so rasterisation and merging
pipeline freely — no end-of-work synchronisation.  Because the WPA restarts
after each emission, a pixel can appear in several emitted buffers; the
Merge filter's depth test resolves those duplicates.

Our MSA is a stable sort of one input buffer's fragments by screen position
rather than a per-scanline array: it finds every pixel's fragments, in the
order the triangles produced them, for the whole buffer at once, so the
depth tests run one overdraw layer at a time instead of one triangle at a
time (see :meth:`ActivePixelRaster.process`).  The data structure semantics
— sparse winning-pixel storage with an index — are the paper's, and the WPA
contents are bit for bit those of inserting triangle by triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.viz.raster import ZBuffer, _fragments, _run_starts

__all__ = ["WPABuffer", "ActivePixelRaster", "ActivePixelMerger", "WPA_ENTRY_BYTES"]

#: Wire size of one winning-pixel entry: int32 position + float32 depth +
#: RGBX colour.
WPA_ENTRY_BYTES = 12


@dataclass
class WPABuffer:
    """One emitted Winning Pixel Array buffer."""

    pixels: np.ndarray  # (n,) int64 flat screen positions (unique)
    depth: np.ndarray  # (n,) float32
    color: np.ndarray  # (n, 3) uint8

    @property
    def entries(self) -> int:
        """Number of winning-pixel entries."""
        return len(self.pixels)

    @property
    def nbytes(self) -> int:
        """Wire size of this buffer."""
        return self.entries * WPA_ENTRY_BYTES


class ActivePixelRaster:
    """Rasterise triangles into WPA buffers.

    Parameters
    ----------
    width / height:
        Screen size.
    capacity_entries:
        WPA capacity: emission size of a full buffer.
    """

    def __init__(self, width: int, height: int, capacity_entries: int = 5461):
        if width < 1 or height < 1:
            raise ConfigurationError("screen dimensions must be >= 1")
        if capacity_entries < 1:
            raise ConfigurationError("capacity_entries must be >= 1")
        self.width = width
        self.height = height
        self.capacity = capacity_entries
        self.fragments_tested = 0

    def process(self, triangles: np.ndarray, colors: np.ndarray) -> list[WPABuffer]:
        """Rasterise one input buffer's triangles; returns emitted WPA buffers.

        Emits every ``capacity_entries`` full buffer produced while
        processing, plus the final partial buffer — the WPA is always empty
        when this method returns.

        The result is what inserting the triangles one by one would leave:
        an entry per touched pixel in the order pixels were first touched;
        each later fragment of a pixel, in triangle order, replaces depth
        and colour when its float64 depth is below the *stored float32*
        depth.  A stable sort by pixel plays the MSA's part: it ranks every
        fragment within its pixel, and the rule is applied one rank (one
        overdraw layer) at a time instead of one triangle at a time.
        """
        triangles = np.asarray(triangles)
        if not triangles.size:
            return []
        if len(colors) != len(triangles):
            raise ConfigurationError("one colour per triangle required")
        pixels, depth, tri = _fragments(triangles, self.width, self.height)
        self.fragments_tested += pixels.size
        if not pixels.size:
            return []
        by_pixel = np.argsort(pixels, kind="stable")
        pix, dep, tri = pixels[by_pixel], depth[by_pixel], tri[by_pixel]
        # One run of ``pix`` per touched pixel, its fragments in triangle order.
        starts = _run_starts(pix)
        layers = np.diff(starts, append=len(pix))
        win_depth = dep[starts].astype(np.float32)
        win_tri = tri[starts]
        runs = np.flatnonzero(layers > 1)
        level = 1
        while runs.size:
            at = starts[runs] + level
            wins = dep[at] < win_depth[runs]
            won = runs[wins]
            win_depth[won] = dep[at[wins]]
            win_tri[won] = tri[at[wins]]
            level += 1
            runs = runs[layers[runs] > level]
        # WPA entry order: pixels by the fragment that first touched them.
        entry = np.argsort(by_pixel[starts])
        wpa_pix = pix[starts][entry]
        wpa_depth = win_depth[entry]
        wpa_color = np.asarray(colors, dtype=np.uint8)[win_tri[entry]]
        return [
            WPABuffer(
                wpa_pix[lo : lo + self.capacity],
                wpa_depth[lo : lo + self.capacity],
                wpa_color[lo : lo + self.capacity],
            )
            for lo in range(0, len(wpa_pix), self.capacity)
        ]


class ActivePixelMerger:
    """Merge-side depth compositing of WPA buffers into the final image."""

    def __init__(self, width: int, height: int):
        self._zbuf = ZBuffer(width, height)
        self.buffers_merged = 0
        self.entries_merged = 0

    def merge(self, buffer: WPABuffer) -> None:
        """Depth-test one WPA buffer's entries into the image."""
        self._zbuf.merge_entries(buffer.pixels, buffer.depth, buffer.color)
        self.buffers_merged += 1
        self.entries_merged += buffer.entries

    def image(self) -> np.ndarray:
        """The composited colour image, (height, width, 3) uint8."""
        return self._zbuf.image()

    def active_pixels(self) -> int:
        """Pixels covered by at least one merged entry."""
        return self._zbuf.active_pixels()
