"""Unit tests for DataBuffer, buffer chunking, the codec and its arenas."""

import os
import select
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import buffer as buffer_module
from repro.core.buffer import (
    RECORD_BYTES, Arena, BufferCodec, DataBuffer, Kind, Record, chunk_bytes,
    read_exact,
)
from repro.errors import EngineError


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


@pytest.fixture
def out_of_band(monkeypatch):
    """Arrays of 1 KiB and more go out of band for the test."""
    monkeypatch.setattr(buffer_module, "OUT_OF_BAND_BYTES", 1024)


def test_codec_large_arrays_go_to_shared_memory():
    arr = np.arange(30_000, dtype=np.float64)
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(arr.nbytes, payload=arr, tags={"chunk": 3})
    )
    assert encoded.extent is not None
    assert len(encoded.placed) == 1
    assert codec.arena().live() == 1
    assert encoded.shared_bytes == arr.nbytes
    assert len(encoded.header) < 4096  # header stays small
    assert decoded.nbytes == arr.nbytes
    assert decoded.tags == {"chunk": 3}
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()
    assert codec.arena().live() == 0


def test_codec_small_arrays_stay_inline():
    arr = np.arange(16, dtype=np.float64)
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(codec, DataBuffer(128, payload=arr))
    assert (encoded.extent, encoded.placed) == (None, ())
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()


class NestedPayload:
    """Pickle-friendly payload wrapper (module-level for the codec tests)."""

    def __init__(self, tris, label):
        self.tris = tris
        self.label = label


def test_codec_nested_payload_objects(out_of_band):
    tris = np.random.default_rng(1).random((500, 3, 3)).astype(np.float32)
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(tris.nbytes, payload=NestedPayload(tris, "soup"))
    )
    assert len(encoded.placed) == 1  # array found inside the object graph
    assert decoded.payload.label == "soup"
    np.testing.assert_array_equal(decoded.payload.tris, tris)
    lease.release()


def test_codec_inline_mode_has_no_segments(monkeypatch):
    arr = np.arange(30_000, dtype=np.float64)
    monkeypatch.setattr(buffer_module, "OUT_OF_BAND_BYTES", 1 << 20)  # above the array
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(codec, DataBuffer(0, payload=arr))
    assert (encoded.extent, encoded.placed) == (None, ())
    np.testing.assert_array_equal(decoded.payload, arr)
    lease.release()  # no-op, still safe


def test_codec_lease_release_is_idempotent():
    arr = np.zeros(20_000)
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(codec, DataBuffer(0, payload=arr))
    view = decoded.payload
    lease.release()
    lease.release()
    assert codec.arena().live() == 0
    # The view is still mapped, but the bytes are the owner's again: its
    # next payload lands on them (first fit from offset 0).
    assert view.sum() == 0.0
    again = codec.encode(DataBuffer(0, payload=np.ones(20_000)))
    assert again.placed[0][0] == encoded.placed[0][0] == 0
    assert view.sum() == 20_000.0
    codec.release_encoded(again)


def test_codec_release_encoded_frees_segments():
    """``release_encoded`` gives the extent back without a decode; a second
    give-back of the same extent is a no-op, even after its space is reused."""
    arr = np.zeros(20_000)
    codec = BufferCodec()
    encoded = codec.encode(DataBuffer(0, payload=arr))
    assert codec.arena().live() == 1
    codec.release_encoded(encoded)
    assert codec.arena().live() == 0
    reused = codec.encode(DataBuffer(0, payload=arr))
    assert reused.extent[2] == encoded.extent[2]
    codec.release_encoded(encoded)  # stale: the record now holds ``reused``
    assert codec.arena().live() == 1
    codec.release_encoded(reused)
    assert codec.arena().live() == 0


def test_codec_preserves_non_contiguous_and_object_payloads():
    base = np.arange(40_000, dtype=np.float64).reshape(200, 200)
    strided = base[::2, ::2]  # non-contiguous view
    codec = BufferCodec()
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

    codec = BufferCodec()
    before = _shm_listing()
    with mock.patch.object(buffer_module, "OUT_OF_BAND_BYTES", threshold):
        encoded = codec.encode(DataBuffer(nbytes, payload=NestedPayload(view, "v")))
    assert _shm_listing() == before
    if nbytes < threshold:  # small arrays ride the header, as ever
        assert (encoded.placed, encoded.mapped) == ((), ())
    else:
        assert (encoded.extent, encoded.placed) == (None, ())
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
    codec.release_encoded(encoded)
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
def test_codec_still_copies_everything_else(mapped_path, case, out_of_band):
    label, array = _views_that_must_be_copied(mapped_path)[case]
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(
        codec, DataBuffer(array.nbytes, payload=array)
    )
    try:
        assert encoded.mapped == (), label
        assert len(encoded.placed) == 1, label
        assert (encoded.shared_bytes, encoded.mapped_bytes) == (array.nbytes, 0)
        np.testing.assert_array_equal(decoded.payload, array)
    finally:
        lease.release()


def test_codec_refuses_a_region_its_file_no_longer_holds(tmp_path, out_of_band):
    """Checked by name before a page is touched; the buffer's extent goes
    back to the arena."""
    path = tmp_path / "values.bin"
    np.arange(8192, dtype=np.float64).tofile(path)
    view = np.asarray(np.memmap(path, dtype=np.float64, mode="r")[4096:])
    copied = np.ones(4096)
    codec = BufferCodec()
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
    assert codec.arena().live() == 0
    os.unlink(path)
    gone = codec.encode(DataBuffer(0, payload=[copied, view, copied]))
    with pytest.raises(EngineError, match=f"{path}: file is gone"):
        codec.decode(gone)
    assert _shm_listing() == before
    assert codec.arena().live() == 0


def test_codec_maps_a_replaced_file_again(tmp_path, out_of_band):
    """The map cache is keyed by what the path names now, not what it did."""
    path = tmp_path / "values.bin"
    codec = BufferCodec()
    for fill in (1.0, 2.0):
        fresh = tmp_path / "fresh.bin"
        np.full(4096, fill).tofile(fresh)
        os.replace(fresh, path)
        view = np.asarray(np.memmap(path, dtype=np.float64, mode="r"))
        decoded, _lease = codec.decode(codec.encode(DataBuffer(0, payload=view)))
        assert decoded.payload[0] == decoded.payload[-1] == fill


def test_codec_with_maps_pickles_for_spawned_workers(mapped_path, out_of_band):
    import pickle

    codec = BufferCodec()
    view = np.asarray(np.memmap(mapped_path, dtype=np.uint8, mode="r")[:4096])
    codec.decode(codec.encode(DataBuffer(0, payload=view)))
    clone = pickle.loads(pickle.dumps(codec))
    decoded, _lease = clone.decode(codec.encode(DataBuffer(0, payload=view)))
    np.testing.assert_array_equal(decoded.payload, view)


# -- arenas --------------------------------------------------------------------


def test_encode_that_cannot_pickle_takes_nothing():
    """A payload that fails to pickle part-way, after a large array, leaves
    nothing placed and nothing under /dev/shm."""
    codec = BufferCodec()
    before = _shm_listing()
    payload = {"a": np.zeros(100_000, dtype=np.float32), "b": threading.Lock()}
    with pytest.raises(TypeError):
        codec.encode(DataBuffer(400_000, payload=payload))
    assert _shm_listing() == before
    assert codec.arena().live() == 0


def test_a_record_array_pickles_inline_and_holds_no_extent():
    """A record dtype's string names only its size (``|V12``), so no view
    could rebuild it from an arena: such an array rides the header, decodes
    equal, and leaves the arena's ledger empty."""
    rows = np.zeros(10_000, [("x", "<f8"), ("y", "<i4")])
    rows["x"], rows["y"] = np.arange(10_000) / 3, np.arange(10_000)
    codec = BufferCodec()
    encoded, decoded, lease = round_trip(codec, DataBuffer(rows.nbytes, payload=rows))
    assert (encoded.extent, encoded.placed) == (None, ())
    assert decoded.payload.dtype == rows.dtype
    np.testing.assert_array_equal(decoded.payload, rows)
    lease.release()
    assert codec.arena().live() == 0


def test_an_encode_that_fails_after_placing_gives_its_extent_back(monkeypatch):
    codec = BufferCodec()
    codec.arena()  # made before the copy into it breaks

    def broken(self, *args):
        raise MemoryError("copy failed")

    monkeypatch.setattr(Arena, "view", broken)
    with pytest.raises(MemoryError, match="copy failed"):
        codec.encode(DataBuffer(0, payload=np.ones(20_000)))
    assert codec.arena().live() == 0


def test_arena_reuses_freed_space_first_fit():
    arena = Arena()
    a, b, c = (arena.place(n) for n in (100, 4096, 64))
    assert [e[2] for e in (a, b, c)] == [0, 128, 4224]
    arena.give_back(b)
    assert arena.place(1000)[2] == 128  # the first hole that fits
    assert arena.place(4000)[2] == 4288  # too big for what is left of it
    assert arena.high_water == 4288 + 4032
    assert arena.live() == 4


def test_full_arena_waits_for_a_give_back(monkeypatch, out_of_band):
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", 3 * 4096)
    codec = BufferCodec()
    held = [codec.encode(DataBuffer(0, payload=np.full(512, float(i)))) for i in range(3)]
    placed = []
    sender = threading.Thread(
        target=lambda: placed.append(codec.encode(DataBuffer(0, payload=np.ones(512)))),
        daemon=True,
    )
    sender.start()
    sender.join(0.2)
    assert sender.is_alive() and not placed  # the arena is full
    decoded, lease = codec.decode(held[1])
    assert decoded.payload[0] == 1.0
    lease.release()
    sender.join(10.0)
    assert not sender.is_alive()
    assert placed[0].extent[2] == held[1].extent[2]
    assert codec.arena().high_water == 3 * 4096


def test_payload_larger_than_the_arena_is_refused(monkeypatch, out_of_band):
    monkeypatch.setattr(buffer_module, "ARENA_BYTES", 4096)
    codec = BufferCodec()
    with pytest.raises(EngineError, match="payload of 8000 bytes exceeds the 4096-byte arena"):
        codec.encode(DataBuffer(0, payload=np.ones(1000)))
    assert codec.arena().live() == 0


def test_an_arena_does_not_cross_a_pickle(out_of_band):
    import pickle

    codec = BufferCodec()
    encoded = codec.encode(DataBuffer(0, payload=np.ones(512)))
    clone = pickle.loads(pickle.dumps(codec))
    assert clone.arena() is not codec.arena()
    assert clone.arena().live() == 0
    with pytest.raises(TypeError):
        pickle.dumps(codec.arena())
    codec.release_encoded(encoded)


# -- the wire ------------------------------------------------------------------
RECORDS = [
    Record(Kind.DATA, 7, 2, 3, -1, (5, 2**40, 4096, 8192), 300, 1.25, True),
    Record(Kind.DATA, 2**40, 65535, 2**31 - 1, 4, (0, 11, 0, 0), 0, 0.5, False),
    Record(Kind.EOW),
    Record(Kind.STOP),
    Record(Kind.GIVE_BACK, extent=(127, 99, 64, 128)),
    Record(Kind.ACK, 3, 1, target=2),
]


def test_a_record_is_one_atomic_pipe_write():
    assert RECORD_BYTES <= select.PIPE_BUF
    assert {len(r.pack()) for r in RECORDS} == {RECORD_BYTES}


def test_every_record_kind_round_trips_field_for_field():
    assert {r.kind for r in RECORDS} == set(Kind)
    read, write = os.pipe()
    try:
        for record in RECORDS:
            os.write(write, record.pack())
        back = list(Record.unpack(read_exact(read, RECORD_BYTES * len(RECORDS))))
    finally:
        os.close(read)
        os.close(write)
    for got, sent in zip(back, RECORDS, strict=True):
        assert got._asdict() == sent._asdict()
        assert [type(v) for v in got] == [type(v) for v in sent]
