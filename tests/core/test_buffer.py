"""Unit tests for DataBuffer, buffer chunking, and the shared-memory codec."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import BufferCodec, DataBuffer, chunk_bytes


def test_buffer_basic():
    buf = DataBuffer(1024, payload=[1, 2], tags={"chunk": 7})
    assert buf.nbytes == 1024
    assert buf.payload == [1, 2]
    assert buf.tags["chunk"] == 7


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        DataBuffer(-1)


def test_with_tags_merges_without_mutating():
    buf = DataBuffer(10, tags={"a": 1})
    buf2 = buf.with_tags(b=2)
    assert buf2.tags == {"a": 1, "b": 2}
    assert buf.tags == {"a": 1}
    assert buf2.nbytes == 10


def test_chunk_bytes_exact_division():
    assert chunk_bytes(400, 100) == [100, 100, 100, 100]


def test_chunk_bytes_remainder():
    assert chunk_bytes(450, 100) == [100, 100, 100, 100, 50]


def test_chunk_bytes_smaller_than_buffer():
    assert chunk_bytes(42, 100) == [42]


def test_chunk_bytes_zero():
    assert chunk_bytes(0, 100) == []


def test_chunk_bytes_validation():
    with pytest.raises(ValueError):
        chunk_bytes(100, 0)
    with pytest.raises(ValueError):
        chunk_bytes(-1, 10)


def test_chunk_bytes_conserves_total():
    for total in (0, 1, 99, 100, 101, 12345):
        assert sum(chunk_bytes(total, 100)) == total


# -- BufferCodec ---------------------------------------------------------------


def round_trip(codec, buffer):
    encoded = codec.encode(buffer)
    decoded, lease = codec.decode(encoded)
    return encoded, decoded, lease


def test_codec_large_arrays_go_to_shared_memory():
    arr = np.arange(30_000, dtype=np.float64)
    codec = BufferCodec(shm_threshold=1024)
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(arr.nbytes, payload=arr, tags={"chunk": 3})
    )
    assert len(encoded.segments) == 1
    assert encoded.shared_bytes == arr.nbytes
    assert len(encoded.header) < 4096  # header stays small
    assert decoded.nbytes == arr.nbytes
    assert decoded.tags == {"chunk": 3}
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()


def test_codec_small_arrays_stay_inline():
    arr = np.arange(16, dtype=np.float64)
    codec = BufferCodec(shm_threshold=1024)
    encoded, decoded, lease = round_trip(codec, DataBuffer(128, payload=arr))
    assert encoded.segments == ()
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()


class NestedPayload:
    """Pickle-friendly payload wrapper (module-level for the codec tests)."""

    def __init__(self, tris, label):
        self.tris = tris
        self.label = label


def test_codec_nested_payload_objects():
    tris = np.random.default_rng(1).random((500, 3, 3)).astype(np.float32)
    codec = BufferCodec(shm_threshold=1024)
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(tris.nbytes, payload=NestedPayload(tris, "soup"))
    )
    assert len(encoded.segments) == 1  # array found inside the object graph
    assert decoded.payload.label == "soup"
    np.testing.assert_array_equal(decoded.payload.tris, tris)
    lease.release()


def test_codec_inline_mode_has_no_segments():
    arr = np.arange(30_000, dtype=np.float64)
    codec = BufferCodec(use_shared_memory=False)
    encoded, decoded, lease = round_trip(codec, DataBuffer(0, payload=arr))
    assert encoded.segments == ()
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()  # no-op, still safe


def test_codec_lease_release_is_idempotent():
    arr = np.zeros(20_000)
    codec = BufferCodec(shm_threshold=1024)
    _encoded, decoded, lease = round_trip(codec, DataBuffer(0, payload=arr))
    view = decoded.payload
    lease.release()
    lease.release()
    # The view stays readable until garbage collected (the mapping outlives
    # the unlink).
    assert view.sum() == 0.0


def test_codec_release_encoded_frees_segments():
    from multiprocessing import shared_memory

    arr = np.zeros(20_000)
    codec = BufferCodec(shm_threshold=1024)
    encoded = codec.encode(DataBuffer(0, payload=arr))
    name = encoded.segments[0][0]
    BufferCodec.release_encoded(encoded)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    BufferCodec.release_encoded(encoded)  # idempotent


def test_codec_threshold_validation():
    with pytest.raises(ValueError):
        BufferCodec(shm_threshold=0)


def test_codec_preserves_non_contiguous_and_object_payloads():
    base = np.arange(40_000, dtype=np.float64).reshape(200, 200)
    strided = base[::2, ::2]  # non-contiguous view
    codec = BufferCodec(shm_threshold=1024)
    _encoded, decoded, lease = round_trip(
        codec, DataBuffer(0, payload={"view": strided, "meta": [1, "two"]})
    )
    np.testing.assert_array_equal(decoded.payload["view"], strided)
    assert decoded.payload["meta"] == [1, "two"]
    lease.release()


# -- arrays passed by reference: read-only views of a mapped file -------------

_FILE_BYTES = 1 << 18
_DTYPES = ["<f4", "<f8", ">f4", "<i2", "|u1", "<c8"]


@pytest.fixture(scope="module")
def mapped_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mapped") / "values.bin"
    path.write_bytes(np.random.default_rng(3).bytes(_FILE_BYTES))
    return path


def _shm_listing():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return sorted(os.listdir("/dev/shm"))


@st.composite
def _regions(draw):
    """(dtype, shape, byte offset, memmap offset) of a region of the file."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    nbytes = int(np.prod(shape)) * dtype.itemsize
    offset = draw(st.integers(0, _FILE_BYTES - nbytes))
    # part of the way in through np.memmap's own offset, the rest by slicing
    map_offset = draw(st.integers(0, offset))
    return dtype, shape, offset, map_offset


@given(region=_regions(), threshold=st.sampled_from([1, 64, 1024]))
@settings(max_examples=150, deadline=None)
def test_codec_mapped_views_travel_by_reference(mapped_path, region, threshold):
    """Any C-contiguous view of a ``mode="r"`` map decodes equal, creates
    nothing under /dev/shm while it travels, and outlives its lease."""
    dtype, shape, offset, map_offset = region
    nbytes = int(np.prod(shape)) * dtype.itemsize
    mapped = np.memmap(mapped_path, dtype=np.uint8, mode="r", offset=map_offset)
    start = offset - map_offset
    view = np.asarray(mapped[start : start + nbytes]).view(dtype).reshape(shape)
    expected = np.frombuffer(
        mapped_path.read_bytes()[offset : offset + nbytes], dtype
    ).reshape(shape)

    codec = BufferCodec(shm_threshold=threshold)
    before = _shm_listing()
    encoded = codec.encode(DataBuffer(nbytes, payload=NestedPayload(view, "v")))
    assert _shm_listing() == before
    if nbytes < threshold:  # small arrays ride the header, as ever
        assert (encoded.segments, encoded.mapped) == ((), ())
    else:
        assert encoded.segments == ()
        assert encoded.mapped == (
            (str(mapped_path), offset, shape, dtype.str),
        )
        assert (encoded.shared_bytes, encoded.mapped_bytes) == (0, nbytes)
        assert len(encoded.header) < 512
    assert encoded.nbytes == nbytes
    decoded, lease = codec.decode(encoded)
    assert _shm_listing() == before
    out = decoded.payload.tris
    assert out.dtype == dtype and out.shape == shape
    assert not out.flags.writeable
    np.testing.assert_array_equal(out, expected)
    lease.release()
    BufferCodec.release_encoded(encoded)
    np.testing.assert_array_equal(out, expected)
    assert _shm_listing() == before


def _views_that_must_be_copied(path):
    """(label, array) pairs that look like a mapped file view but are not
    shared memory a consumer may map read-only."""
    shape = (64, 64)
    count = shape[0] * shape[1]
    read_only = np.memmap(path, dtype=np.float32, mode="r")
    in_memory = np.array(read_only[:count]).reshape(shape)
    in_memory.setflags(write=False)
    frozen_rplus = np.asarray(
        np.memmap(path, dtype=np.float32, mode="r+")[:count]
    ).reshape(shape)
    frozen_rplus.setflags(write=False)
    return [
        ("writeable copy-on-write map",
         np.memmap(path, dtype=np.float32, mode="c")[:count].reshape(shape)),
        ("writeable r+ map",
         np.memmap(path, dtype=np.float32, mode="r+")[:count].reshape(shape)),
        ("read-only flag on an r+ map", frozen_rplus),
        ("strided view of the r map",
         np.asarray(read_only[: 2 * count : 2]).reshape(shape)),
        ("read-only array in memory", in_memory),
    ]


@pytest.mark.parametrize("case", range(5))
def test_codec_still_copies_everything_else(mapped_path, case):
    label, array = _views_that_must_be_copied(mapped_path)[case]
    codec = BufferCodec(shm_threshold=1024)
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(array.nbytes, payload=array)
    )
    try:
        assert encoded.mapped == (), label
        assert len(encoded.segments) == 1, label
        assert (encoded.shared_bytes, encoded.mapped_bytes) == (array.nbytes, 0)
        np.testing.assert_array_equal(decoded.payload, array)
    finally:
        lease.release()


def test_codec_refuses_a_region_its_file_no_longer_holds(tmp_path):
    """Checked by name before a page is touched; the buffer's segments go."""
    from repro.errors import EngineError

    path = tmp_path / "values.bin"
    np.arange(8192, dtype=np.float64).tofile(path)
    view = np.asarray(np.memmap(path, dtype=np.float64, mode="r")[4096:])
    copied = np.ones(4096)
    codec = BufferCodec(shm_threshold=1024)
    good = codec.encode(DataBuffer(0, payload=[copied, view]))
    decoded, lease = codec.decode(good)
    np.testing.assert_array_equal(decoded.payload[1], np.arange(4096, 8192))
    lease.release()

    before = _shm_listing()
    os.truncate(path, 8192 * 8 - 1)
    short = codec.encode(DataBuffer(0, payload=[copied, view, copied]))
    with pytest.raises(EngineError, match=f"{path}: bytes 32768..65536 .* 65535"):
        codec.decode(short)
    assert _shm_listing() == before
    os.unlink(path)
    gone = codec.encode(DataBuffer(0, payload=[copied, view, copied]))
    with pytest.raises(EngineError, match=f"{path}: file is gone"):
        codec.decode(gone)
    assert _shm_listing() == before


def test_codec_maps_a_replaced_file_again(tmp_path):
    """The map cache is keyed by what the path names now, not what it did."""
    path = tmp_path / "values.bin"
    codec = BufferCodec(shm_threshold=1024)
    for fill in (1.0, 2.0):
        fresh = tmp_path / "fresh.bin"
        np.full(4096, fill).tofile(fresh)
        os.replace(fresh, path)
        view = np.asarray(np.memmap(path, dtype=np.float64, mode="r"))
        decoded, _lease = codec.decode(codec.encode(DataBuffer(0, payload=view)))
        assert decoded.payload[0] == decoded.payload[-1] == fill


def test_codec_with_maps_pickles_for_spawned_workers(mapped_path):
    import pickle

    codec = BufferCodec(shm_threshold=1024)
    view = np.asarray(np.memmap(mapped_path, dtype=np.uint8, mode="r")[:4096])
    codec.decode(codec.encode(DataBuffer(0, payload=view)))
    clone = pickle.loads(pickle.dumps(codec))
    decoded, _lease = clone.decode(codec.encode(DataBuffer(0, payload=view)))
    np.testing.assert_array_equal(decoded.payload, view)
