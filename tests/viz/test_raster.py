"""Tests for fragment generation, the z-buffer, and active-pixel rendering."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.viz.active_pixel import (
    WPA_ENTRY_BYTES,
    ActivePixelMerger,
    ActivePixelRaster,
)
from repro.viz.raster import ZBUFFER_ENTRY_BYTES, ZBuffer
from tests.viz.reference_kernels import triangle_fragments


def big_tri(depth=1.0):
    """A triangle covering the lower-left half of a 10x10 screen."""
    return np.array([[0.0, 0.0, depth], [10.0, 0.0, depth], [0.0, 10.0, depth]])


def test_fragments_cover_half_square():
    pix, depth = triangle_fragments(big_tri(), 10, 10)
    # Lower-left half of a 10x10 pixel grid at pixel centres; the inclusive
    # edge rule (w >= 0) also takes the 10 centres on the hypotenuse: 55.
    assert pix.size == 55
    np.testing.assert_allclose(depth, 1.0)


def test_fragments_interpolate_depth():
    tri = np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 3.0], [0.0, 10.0, 5.0]])
    pix, depth = triangle_fragments(tri, 10, 10)
    assert depth.min() >= 1.0
    assert depth.max() <= 5.0
    # Depth at the corner-most fragment (0.5, 0.5) is close to vertex 0.
    corner = np.argmin(pix)
    assert depth[corner] == pytest.approx(1.0 + 0.05 * 2 + 0.05 * 4, abs=0.01)


def test_fragments_clip_to_viewport():
    tri = np.array([[-5.0, -5.0, 1.0], [15.0, -5.0, 1.0], [-5.0, 15.0, 1.0]])
    pix, _ = triangle_fragments(tri, 10, 10)
    assert pix.min() >= 0
    assert pix.max() < 100


def test_fragments_degenerate_triangle_empty():
    tri = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [3.0, 3.0, 1.0]])
    pix, _ = triangle_fragments(tri, 10, 10)
    assert pix.size == 0


def test_fragments_behind_camera_dropped():
    pix, _ = triangle_fragments(big_tri(depth=-1.0), 10, 10)
    assert pix.size == 0


def test_fragments_fully_offscreen():
    tri = np.array([[20.0, 20.0, 1.0], [30.0, 20.0, 1.0], [20.0, 30.0, 1.0]])
    pix, _ = triangle_fragments(tri, 10, 10)
    assert pix.size == 0


def test_zbuffer_depth_test():
    zb = ZBuffer(10, 10)
    red = np.array([255, 0, 0], dtype=np.uint8)
    blue = np.array([0, 0, 255], dtype=np.uint8)
    zb.rasterize(big_tri(depth=5.0)[None], red[None])
    zb.rasterize(big_tri(depth=2.0)[None], blue[None])  # nearer wins
    img = zb.image()
    assert (img[2, 2] == blue).all()
    zb.rasterize(big_tri(depth=9.0)[None], red[None])  # farther loses
    assert (zb.image()[2, 2] == blue).all()


def test_zbuffer_merge_consistency():
    rng = np.random.default_rng(1)
    tris = rng.uniform(0, 10, size=(40, 3, 3))
    tris[:, :, 2] = rng.uniform(1, 5, size=(40, 3))
    colors = rng.integers(0, 255, size=(40, 3), dtype=np.uint8)
    # Render all in one buffer.
    whole = ZBuffer(10, 10)
    whole.rasterize(tris, colors)
    # Render split over 3 "copies" and merge.
    parts = [ZBuffer(10, 10) for _ in range(3)]
    for i in range(40):
        parts[i % 3].rasterize(tris[i : i + 1], colors[i : i + 1])
    merged = ZBuffer(10, 10)
    for part in parts:
        merged.merge(part)
    np.testing.assert_array_equal(whole.image(), merged.image())
    np.testing.assert_array_equal(whole.depth, merged.depth)


def test_zbuffer_slabs_roundtrip():
    rng = np.random.default_rng(2)
    tris = rng.uniform(0, 10, size=(10, 3, 3))
    tris[:, :, 2] = 2.0
    colors = rng.integers(0, 255, size=(10, 3), dtype=np.uint8)
    zb = ZBuffer(10, 10)
    zb.rasterize(tris, colors)
    slabs = zb.slabs(entries_per_buffer=16)
    assert len(slabs) == int(np.ceil(100 / 16))
    assert sum(s.nbytes for s in slabs) == 100 * ZBUFFER_ENTRY_BYTES
    rebuilt = ZBuffer(10, 10)
    for slab in slabs:
        rebuilt.merge_slab(slab)
    np.testing.assert_array_equal(rebuilt.image(), zb.image())


def test_zbuffer_slabs_are_views_of_the_buffer():
    zb = ZBuffer(10, 10)
    slabs = zb.slabs(entries_per_buffer=16)
    for slab in slabs:
        assert np.shares_memory(slab.depth, zb.depth)
        assert np.shares_memory(slab.color, zb.color)
    assert [len(s.depth) for s in slabs] == [16] * 6 + [4]


def test_zbuffer_total_bytes_formula():
    zb = ZBuffer(2048, 2048)
    assert zb.total_bytes == 2048 * 2048 * 8  # the paper's 32 MB


def test_zbuffer_validation():
    with pytest.raises(ConfigurationError):
        ZBuffer(0, 10)
    zb = ZBuffer(4, 4)
    with pytest.raises(ConfigurationError):
        zb.rasterize(big_tri()[None], np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ConfigurationError):
        zb.merge(ZBuffer(5, 5))
    with pytest.raises(ConfigurationError):
        zb.slabs(0)


def test_active_pixel_equivalent_to_zbuffer():
    rng = np.random.default_rng(3)
    tris = rng.uniform(0, 20, size=(60, 3, 3))
    tris[:, :, 2] = rng.uniform(1, 5, size=(60, 3))
    colors = rng.integers(0, 255, size=(60, 3), dtype=np.uint8)
    zb = ZBuffer(20, 20)
    zb.rasterize(tris, colors)
    ap = ActivePixelRaster(20, 20, capacity_entries=37)
    merger = ActivePixelMerger(20, 20)
    for i in range(0, 60, 7):  # uneven input buffers
        for buf in ap.process(tris[i : i + 7], colors[i : i + 7]):
            merger.merge(buf)
    np.testing.assert_array_equal(merger.image(), zb.image())
    assert merger.active_pixels() == zb.active_pixels()


def test_active_pixel_emits_per_input_buffer():
    ap = ActivePixelRaster(10, 10, capacity_entries=1000)
    red = np.array([[255, 0, 0]], dtype=np.uint8)
    bufs = ap.process(big_tri(depth=1.0)[None], red)
    assert len(bufs) == 1  # partial emission at end of the input buffer
    assert bufs[0].entries == 55
    assert bufs[0].nbytes == 55 * WPA_ENTRY_BYTES
    # The WPA restarts: processing again re-emits the same pixels.
    bufs2 = ap.process(big_tri(depth=1.0)[None], red)
    assert bufs2[0].entries == 55


def test_active_pixel_full_buffer_emission():
    ap = ActivePixelRaster(10, 10, capacity_entries=10)
    red = np.array([[255, 0, 0]], dtype=np.uint8)
    bufs = ap.process(big_tri(depth=1.0)[None], red)
    # 55 entries at capacity 10 -> 5 full + 1 partial.
    assert [b.entries for b in bufs] == [10, 10, 10, 10, 10, 5]


def test_active_pixel_sparse_volume_advantage():
    # One small triangle: AP ships only its pixels, z-buffer ships all.
    ap = ActivePixelRaster(64, 64, capacity_entries=4096)
    tri = np.array([[1.0, 1.0, 1.0], [4.0, 1.0, 1.0], [1.0, 4.0, 1.0]])
    bufs = ap.process(tri[None], np.array([[1, 2, 3]], dtype=np.uint8))
    ap_bytes = sum(b.nbytes for b in bufs)
    zb = ZBuffer(64, 64)
    assert ap_bytes < zb.total_bytes / 100


def test_active_pixel_within_batch_dedup():
    # Two overlapping triangles in ONE input buffer: each covered pixel
    # appears once in the emission, with the nearer triangle's colour.
    ap = ActivePixelRaster(10, 10, capacity_entries=1000)
    tris = np.stack([big_tri(depth=5.0), big_tri(depth=2.0)])
    colors = np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8)
    bufs = ap.process(tris, colors)
    assert len(bufs) == 1
    buf = bufs[0]
    assert buf.entries == 55  # no duplicates
    assert len(np.unique(buf.pixels)) == 55
    assert (buf.color == np.array([0, 0, 255])).all()
    np.testing.assert_allclose(buf.depth, 2.0)


def test_active_pixel_validation():
    with pytest.raises(ConfigurationError):
        ActivePixelRaster(0, 10)
    with pytest.raises(ConfigurationError):
        ActivePixelRaster(10, 10, capacity_entries=0)
    ap = ActivePixelRaster(10, 10)
    with pytest.raises(ConfigurationError):
        ap.process(big_tri()[None], np.zeros((2, 3), dtype=np.uint8))


def test_merger_counts():
    ap = ActivePixelRaster(10, 10, capacity_entries=20)
    merger = ActivePixelMerger(10, 10)
    red = np.array([[255, 0, 0]], dtype=np.uint8)
    for buf in ap.process(big_tri(depth=1.0)[None], red):
        merger.merge(buf)
    assert merger.buffers_merged == 3  # 55 entries at capacity 20
    assert merger.entries_merged == 55


from hypothesis import given, settings
from hypothesis import strategies as st


@given(seed=st.integers(min_value=0, max_value=10_000),
       batch=st.integers(min_value=1, max_value=13),
       capacity=st.integers(min_value=3, max_value=200))
@settings(max_examples=30, deadline=None)
def test_property_ap_equals_zbuffer(seed, batch, capacity):
    """For any triangle soup, batching and WPA capacity, the active-pixel
    path composites to exactly the z-buffer image."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    tris = rng.uniform(-2, 18, size=(n, 3, 3))
    tris[:, :, 2] = rng.uniform(0.5, 6.0, size=(n, 3))
    colors = rng.integers(0, 255, size=(n, 3), dtype=np.uint8)

    zb = ZBuffer(16, 16)
    zb.rasterize(tris, colors)

    ap = ActivePixelRaster(16, 16, capacity_entries=capacity)
    merger = ActivePixelMerger(16, 16)
    for i in range(0, n, batch):
        for buf in ap.process(tris[i : i + batch], colors[i : i + batch]):
            merger.merge(buf)
    np.testing.assert_array_equal(merger.image(), zb.image())
