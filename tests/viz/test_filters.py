"""Unit tests for the real isosurface filters (outside the engines)."""

import numpy as np
import pytest

from repro.core.buffer import DataBuffer
from repro.core.filter import FilterContext
from repro.core.fuse import fuse
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.errors import DataError
from repro.viz.camera import Camera
from repro.viz.filters import (
    TRIANGLE_BYTES,
    ChunkPayload,
    ExtractFilter,
    MergeAPFilter,
    MergeZFilter,
    RasterAPFilter,
    RasterZFilter,
    ReadFilter,
    TrianglePayload,
    raster_filter,
)
from repro.viz.profile import DatasetProfile


class Collector:
    """A FilterContext capturing writes for direct filter testing."""

    def __init__(self, host="h0", copy_index=0, copies_on_host=1, total=1):
        self.written: list[tuple[str, DataBuffer]] = []
        self.ctx = FilterContext(
            filter_name="test",
            host=host,
            copy_index=copy_index,
            copies_on_host=copies_on_host,
            total_copies=total,
            output_streams=["out"],
            write_fn=lambda stream, buf: self.written.append((stream, buf)),
        )


@pytest.fixture(scope="module")
def world():
    dataset = ParSSimDataset((17, 17, 17), timesteps=1, seed=3)
    iso = 0.35
    profile = DatasetProfile.measured("w", dataset, 8, 4, isovalue=iso)
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    return dataset, profile, storage, iso


def test_read_filter_emits_one_buffer_per_chunk(world):
    dataset, profile, storage, _iso = world
    col = Collector()
    ReadFilter(dataset, storage, timestep=0).flush(col.ctx)
    assert len(col.written) == len(profile.chunks)
    total_bytes = sum(buf.nbytes for _s, buf in col.written)
    assert total_bytes == sum(c.nbytes for c in profile.chunks)
    ids = sorted(buf.tags["chunk"] for _s, buf in col.written)
    assert ids == [c.chunk_id for c in profile.chunks]


def test_read_filter_copies_split_files(world):
    dataset, profile, storage, _iso = world
    chunks_seen = []
    for idx in range(2):
        col = Collector(copy_index=idx, copies_on_host=2, total=2)
        ReadFilter(dataset, storage, timestep=0).flush(col.ctx)
        chunks_seen.append({buf.tags["chunk"] for _s, buf in col.written})
    assert chunks_seen[0].isdisjoint(chunks_seen[1])
    assert len(chunks_seen[0] | chunks_seen[1]) == len(profile.chunks)


def test_read_filter_unknown_host_reads_nothing(world):
    dataset, _profile, storage, _iso = world
    col = Collector(host="ghost")
    ReadFilter(dataset, storage, timestep=0).flush(col.ctx)
    assert col.written == []


class Ranged:
    """``world``'s dataset with the value-range index a store would carry;
    remembers which chunks were actually read."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.shape, self.timesteps, self.species = (
            dataset.shape, dataset.timesteps, dataset.species,
        )
        self.read = []

    def chunk_field(self, chunk, timestep, species=0):
        self.read.append(chunk.chunk_id)
        return self.dataset.chunk_field(chunk, timestep, species)

    def chunk_range(self, chunk, timestep, species=0):
        scalars = self.dataset.chunk_field(chunk, timestep, species)
        return float(scalars.min()), float(scalars.max())


def _flush_read(source, storage, uow=None, **kw):
    col = Collector()
    col.ctx.uow = uow
    ReadFilter(source, storage, timestep=0, **kw).flush(col.ctx)
    return col.written


def test_read_filter_skips_chunks_the_isosurface_cannot_cross(world):
    """With value ranges, Read emits exactly the chunks that yield a
    triangle, and does not touch the others."""
    dataset, profile, storage, iso = world
    yielding = [c.chunk_id for c in profile.chunks if profile.triangles(0, c.chunk_id)]
    assert 0 < len(yielding) < len(profile.chunks)
    source = Ranged(dataset)
    written = _flush_read(source, storage, isovalue=iso)
    assert sorted(buf.tags["chunk"] for _s, buf in written) == yielding
    assert sorted(source.read) == yielding
    assert all(isinstance(buf.payload, ChunkPayload) for _s, buf in written)


def test_read_filter_takes_the_isovalue_from_the_unit_of_work(world):
    dataset, profile, storage, iso = world
    source = Ranged(dataset)
    # above every sample: nothing to read, whatever the constructor said
    assert _flush_read(source, storage, {"isovalue": 99.0}, isovalue=iso) == []
    assert _flush_read(source, storage, {"isovalue": 99.0}) == []
    assert source.read == []
    # the constructor's isovalue excludes everything, the unit of work's not
    written = _flush_read(source, storage, {"isovalue": iso}, isovalue=99.0)
    assert len(written) == len(source.read) > 0
    # no isovalue from either: nothing can be ruled out
    assert len(_flush_read(source, storage)) == len(profile.chunks)


def test_extract_filter_counts_match_profile(world):
    dataset, profile, storage, iso = world
    read_col = Collector()
    ReadFilter(dataset, storage, timestep=0).flush(read_col.ctx)
    extract = ExtractFilter(iso)
    out_col = Collector()
    for _stream, buf in read_col.written:
        extract.handle(out_col.ctx, buf)
    total_tris = sum(
        len(b.payload.triangles) for _s, b in out_col.written
    )
    assert total_tris == profile.total_triangles(0)
    for _s, buf in out_col.written:
        assert buf.nbytes == len(buf.payload.triangles) * TRIANGLE_BYTES


def test_extract_filter_skips_empty_chunks():
    extract = ExtractFilter(isovalue=99.0)  # nothing crosses this level
    col = Collector()
    chunk_payload = ChunkPayload(
        chunk=None, scalars=np.zeros((4, 4, 4), dtype=np.float32)
    )
    # Build a fake chunk with start for origin computation.
    from repro.data.chunks import ChunkSpec

    chunk_payload = ChunkPayload(
        ChunkSpec(0, (0, 0, 0), (0, 0, 0), (4, 4, 4)),
        np.zeros((4, 4, 4), dtype=np.float32),
    )
    extract.handle(col.ctx, DataBuffer(256, chunk_payload))
    assert col.written == []


def test_raster_z_filter_flushes_full_zbuffer():
    cam = Camera(eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0),
                 width=16, height=16, view_width=4.0)
    raster = RasterZFilter(cam)
    col = Collector()
    raster.init(col.ctx)
    tri = np.array([[[-1, -1, 0], [1, -1, 0], [0, 1, 0]]], dtype=np.float32)
    raster.handle(col.ctx, DataBuffer(36, TrianglePayload(tri)))
    assert col.written == []  # z-buffer holds until EOW
    raster.flush(col.ctx)
    assert sum(b.nbytes for _s, b in col.written) == 16 * 16 * 8


def test_raster_ap_filter_streams_immediately():
    cam = Camera(eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0),
                 width=16, height=16, view_width=4.0)
    raster = RasterAPFilter(cam)
    col = Collector()
    raster.init(col.ctx)
    tri = np.array([[[-1, -1, 0], [1, -1, 0], [0, 1, 0]]], dtype=np.float32)
    raster.handle(col.ctx, DataBuffer(36, TrianglePayload(tri)))
    assert len(col.written) == 1  # WPA emitted per input buffer
    assert col.written[0][1].payload.entries > 0


def test_merge_filters_compose_images():
    cam = Camera(eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0),
                 width=16, height=16, view_width=4.0)
    tri = np.array([[[-1, -1, 0], [1, -1, 0], [0, 1, 0]]], dtype=np.float32)
    # z-buffer path
    rz = RasterZFilter(cam)
    cz = Collector()
    rz.init(cz.ctx)
    rz.handle(cz.ctx, DataBuffer(36, TrianglePayload(tri)))
    rz.flush(cz.ctx)
    mz = MergeZFilter(16, 16)
    mz.init(Collector().ctx)
    for _s, buf in cz.written:
        mz.handle(None, buf)
    rz_result = mz.result()
    # active-pixel path
    ra = RasterAPFilter(cam)
    ca = Collector()
    ra.init(ca.ctx)
    ra.handle(ca.ctx, DataBuffer(36, TrianglePayload(tri)))
    ma = MergeAPFilter(16, 16)
    ma.init(Collector().ctx)
    for _s, buf in ca.written:
        ma.handle(None, buf)
    ap_result = ma.result()
    np.testing.assert_array_equal(rz_result.image, ap_result.image)
    assert rz_result.active_pixels == ap_result.active_pixels > 0


def test_extract_raster_filter_validation():
    cam = Camera(eye=(0, 0, 10), target=(0, 0, 0), up=(0, 1, 0),
                 width=8, height=8)
    with pytest.raises(DataError):
        fuse(ExtractFilter(0.5), raster_filter("bogus", cam))


def test_merge_result_before_run_raises():
    from repro.errors import EngineError

    for merge in (MergeZFilter(8, 8), MergeAPFilter(8, 8)):
        with pytest.raises(EngineError, match="run the pipeline first"):
            merge.result()
