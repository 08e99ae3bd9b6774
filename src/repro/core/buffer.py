"""Data buffers: the unit of communication between filters.

All stream traffic is fixed-size buffers (paper Section 2).  A
:class:`DataBuffer` carries an explicit byte count (used by the simulated
engine for network/disk accounting) and an optional payload (real data, used
by the threaded/process engines and by trace-driven simulation).  ``tags`` is
an open dictionary for application metadata (chunk id, timestep, scanline
range...).

:class:`BufferCodec` serialises buffers for transport between transparent
copies that do not share an address space.  Large NumPy arrays anywhere in
the payload are copied once into the sending copy's :class:`Arena` — one
anonymous shared mapping per producing copy, made before the copies fork,
so every copy maps every arena — and the remaining object structure
pickles into a small header kept in the same arena: what crosses between
copies is a fixed-size :class:`Record` on a kernel pipe, naming the extent.
The consumer decodes views into the owner's arena and gives the extent back
once its ``handle`` returns; the owner reuses the space first-fit.  No
named object is created, so nothing can outlive the processes that map an
arena.  One kind of large array is
shared memory *already*: a C-contiguous read-only view into a ``mode="r"``
file mapping (what the Read filter streams from a
:class:`~repro.data.diskstore.DeclusteredStore`).  Such an array travels as
a ``(path, byte offset, shape, dtype)`` descriptor and the consumer maps the
same file — no arena, no copy.  Threads share one address space and pass
buffers by reference instead: the codec is forked copies' only.
"""

from __future__ import annotations

import fcntl
import io
import mmap
import os
import pickle
import struct
import termios
import weakref
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, NamedTuple, TypeVar

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ARENA_BYTES", "OUT_OF_BAND_BYTES", "RECORD_BYTES", "Arena", "BufferCodec",
    "DataBuffer", "EncodedBuffer", "Kind", "PayloadLease", "Record",
    "chunk_bytes", "disposer", "pending", "pipe", "read_exact",
]


@dataclass
class DataBuffer:
    """One stream buffer.

    Parameters
    ----------
    nbytes:
        Size on the wire in bytes.  Must be >= 0.
    payload:
        Optional real contents (any object; typically NumPy arrays).
    tags:
        Application metadata travelling with the buffer.
    """

    nbytes: int
    payload: Any = None
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"buffer nbytes must be >= 0, got {self.nbytes}")

    def with_tags(self, **tags: Any) -> "DataBuffer":
        """Return a copy of this buffer with additional tags."""
        merged = dict(self.tags)
        merged.update(tags)
        return DataBuffer(self.nbytes, self.payload, merged)


#: Bytes of payload one producing copy can have placed and not yet given back.
#: The bound behind it: the largest payload a shipped pipeline sends is a
#: z-buffer slab of a 512² frame (1.75 MiB, taken as 2 MiB), and one copy can
#: have in flight, per slot of the cycle ring, one payload per place in its
#: target queues (queue capacity 8 x 1 target copy set in the served
#: pipelines), one in each consumer's ``handle`` (2 copies) and the one it is
#: placing — 11 payloads, 22 MiB per slot, 44 MiB for the two slots ``repro
#: serve`` runs.  Only touched pages cost memory, and first-fit from offset 0
#: keeps those at the in-flight high-water mark.  Measured on S129 (129³
#: points, 512² frames, R-E-Ra-M, two copies per stage) with
#: ``WarmPool.stats()["arenas"]``: 48 distinct queries from two clients
#: peak at 1.2-1.6 MiB in an Extract copy (indexed meshes) and at one
#: slab, 1.75 MiB, in a Raster copy.
#: A fuller arena makes the sender wait for give-backs; one payload larger
#: than the whole arena fails its cycle.
ARENA_BYTES = 2 * 2**20 * (8 * 1 + 2 + 1) * 2

#: Arrays of at least this many bytes go out of band (into an arena, or as a
#: file region); smaller ones, and arrays whose dtype string does not name
#: their dtype (objects, records), pickle inline in the header.  64 KiB keeps
#: most headers in their record's slot while every scalar block, triangle
#: array and z-buffer slab of a served S129 query goes out of band.
OUT_OF_BAND_BYTES = 64 * 1024

#: Extents one arena can hold at once (one record each in its table).
_RECORDS = 128
#: Header words ahead of the record table: the last extent id handed out
#: and the high-water mark in bytes.
_NEXT, _HIGH = 0, 1
_HEAD_WORDS = 2
#: Bytes of header space each record has beside the payload space; a longer
#: header goes into its extent, behind the arrays.
_SLOT = 4096
#: Alignment of every extent and of every array inside one.
_ALIGN = 64

T = TypeVar("T")
#: One placed buffer's space: (record, extent id, byte offset, byte count).
Extent = tuple[int, int, int, int]
#: An array placed in an arena: (byte offset, shape, dtype string).
_Placed = tuple[int, tuple[int, ...], str]
#: An array passed by reference: (file path, byte offset, shape, dtype string).
_Mapped = tuple[str, int, tuple[int, ...], str]


def _array_bytes(shape: tuple[int, ...], dtype: str) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


# -- the wire -----------------------------------------------------------------
class Kind(IntEnum):
    """What a :class:`Record` says."""

    DATA = 0  # a buffer sits in the producer's arena
    EOW = 1  # a producer's end-of-work, behind its data
    STOP = 2  # a sibling's share of the stream is closed
    GIVE_BACK = 3  # an extent is given back to its owner
    ACK = 4  # a consumer acknowledges a DD buffer


_RECORD = struct.Struct("=BqHii4qid?")
#: Bytes of one record: every pipe write is one record, atomic under
#: ``select.PIPE_BUF``, so writers never interleave and readers never split.
RECORD_BYTES = _RECORD.size


class Record(NamedTuple):
    """Everything copies say to each other, as one fixed-size pipe write.

    A data record names its buffer: ``extent`` in the ``producer``'s arena,
    holding the arrays and a ``header``-byte pickle (between threads,
    ``extent[1]`` keys the buffer in the world's by-reference table).  A
    give-back names an ``extent``; an ack, its buffer's ``cycle``,
    ``stream`` index and ``target`` copy set.  Markers say nothing more.
    """

    kind: Kind
    cycle: int = 0
    stream: int = 0
    producer: int = 0
    target: int = 0
    extent: Extent = (0, 0, 0, 0)
    header: int = 0
    sent_at: float = 0.0
    needs_ack: bool = False

    def pack(self) -> bytes:
        return _RECORD.pack(*self[:5], *self.extent, *self[6:])

    @classmethod
    def unpack(cls, data: bytes) -> Iterator["Record"]:
        """Every record in ``data``, in order."""
        for kind, cycle, stream, producer, target, record, xid, offset, nbytes, \
                header, sent_at, needs_ack in _RECORD.iter_unpack(data):
            yield cls(
                Kind(kind), cycle, stream, producer, target,
                (record, xid, offset, nbytes), header, sent_at, needs_ack,
            )


def pipe(holds: int = 0) -> tuple[int, int]:
    """A kernel pipe, ``(read end, write end)``, whose buffer holds at least
    ``holds`` bytes.  Its ends stay blocking: a file description's
    ``O_NONBLOCK`` is shared by every process that inherits it."""
    fds = os.pipe()
    if holds > mmap.PAGESIZE:  # the least a pipe is guaranteed to hold
        fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, holds)
    return fds


def pending(fd: int) -> int:
    """Bytes waiting in pipe ``fd``, read without taking them."""
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


def read_exact(fd: int, nbytes: int) -> bytes:
    """``nbytes`` from pipe ``fd``; blocks until they are all there."""
    data = b""
    while len(data) < nbytes:
        if not (more := os.read(fd, nbytes - len(data))):
            raise EOFError(f"pipe {fd} closed")
        data += more
    return data


def disposer(owner: Any, *fds: int) -> Callable[[], object]:
    """Closes ``fds`` once: when called, or when ``owner`` is collected."""
    return weakref.finalize(owner, lambda: [os.close(fd) for fd in fds])


class Arena:
    """One producing copy's payload space and answer pipe.

    Both are made before the copies fork — an anonymous ``MAP_SHARED``
    mapping and a kernel pipe — so every copy inherits every arena.  The
    owner places each encoded buffer in one extent (:meth:`place`), arrays
    first, the header in the extent's record slot; whoever decodes or
    discards the buffer gives it back (:meth:`give_back`), and a consumer
    acknowledges a DD buffer (:meth:`answer`), each with one :class:`Record`
    on the pipe.  Only the owner reads the pipe, in :meth:`wait`: it frees
    each extent given back and hands each ack to the router its cycle and
    stream registered in ``routers``, then retries what it waits for — a
    hole (first fit from offset 0) or window room.  No lock is shared.  A
    give-back also negates the extent id in the record table, which lives
    in the mapping, so any process reads an exact ledger (:meth:`live`).
    An arena does not pickle: its bytes are shared by inheritance only.
    """

    def __init__(self, owner: int = 0) -> None:
        self.owner = owner
        self.capacity = ARENA_BYTES
        words = _HEAD_WORDS + 3 * _RECORDS
        #: Offset of the first header slot, and of the first payload byte.
        self._slots = _aligned(8 * words)
        self._data = -(-(self._slots + _SLOT * _RECORDS) // mmap.PAGESIZE) * mmap.PAGESIZE
        # Anonymous and MAP_SHARED (mmap's default flags): zero-filled, so
        # the header starts empty, and shared with every later fork.
        self.mapping = mmap.mmap(-1, self._data + self.capacity)
        head = np.ndarray((words,), np.int64, buffer=self.mapping)
        self._head = head[:_HEAD_WORDS]
        #: Per record: (extent id, negated once given back, or 0 when free;
        #: byte offset; byte count).
        self._table = head[_HEAD_WORDS:].reshape(_RECORDS, 3)
        #: (cycle, stream index) -> the router its acks go to (owner side).
        self.routers: dict[tuple[int, int], Any] = {}
        self._answers = os.pipe()
        self.dispose = disposer(self, *self._answers)

    def wait(self, attempt: Callable[[], "T | None"]) -> tuple[T, bool]:
        """Run ``attempt`` until it returns something (owner side), taking
        the answers that arrived before each try and sleeping on the pipe in
        between; also says whether it slept."""
        waited = False
        while True:
            self._take(pending(self._answers[0]))
            got = attempt()
            if got is not None:
                return got, waited
            self._take(RECORD_BYTES)
            waited = True

    def _take(self, nbytes: int) -> None:
        """Read ``nbytes`` of answers off the pipe and apply them."""
        for record in Record.unpack(read_exact(self._answers[0], nbytes)):
            if record.kind == Kind.ACK:
                router = self.routers.get((record.cycle, record.stream))
                if router is not None:  # else its cycle is over
                    router.ack(record.target)
            elif self._table[record.extent[0], 0] == -record.extent[1]:
                self._table[record.extent[0], 0] = 0

    def place(self, nbytes: int, header: int = 0) -> Extent:
        """Take an extent for ``nbytes`` of arrays and a ``header``-byte
        header (owner side); waits while none fits."""
        size = _aligned(nbytes) + (_aligned(header) if header > _SLOT else 0)
        if size > self.capacity:
            raise EngineError(
                f"a payload of {nbytes} bytes exceeds the "
                f"{self.capacity}-byte arena"
            )
        extent, _ = self.wait(lambda: self._fit(size))
        return extent

    def _fit(self, size: int) -> "Extent | None":
        """First fit from offset 0 and a free record, or ``None``."""
        rows = self._table.tolist()
        start = 0
        for offset, length in sorted((o, n) for xid, o, n in rows if xid):
            if offset - start >= size:
                break
            start = offset + length
        record = next((i for i, row in enumerate(rows) if not row[0]), None)
        if record is None or start + size > self.capacity:
            return None
        xid = int(self._head[_NEXT]) + 1
        self._head[_NEXT] = xid
        self._table[record] = (xid, start, size)
        self._head[_HIGH] = max(int(self._head[_HIGH]), start + size)
        return record, xid, start, size

    def header(self, extent: Extent, nbytes: int) -> slice:
        """Where in ``mapping`` the ``nbytes`` header of ``extent`` lives."""
        record, _xid, offset, size = extent
        at = self._slots + record * _SLOT
        if nbytes > _SLOT:
            at = self._data + offset + size - _aligned(nbytes)
        return slice(at, at + nbytes)

    def give_back(self, extent: Extent) -> None:
        """Return an extent to its owner; a second give-back is a no-op."""
        record, xid = extent[0], extent[1]
        if self._table[record, 0] == xid:
            self._table[record, 0] = -xid
            self.answer(Record(Kind.GIVE_BACK, extent=extent))

    def answer(self, record: Record) -> None:
        """Send the owner one record (a give-back or an ack)."""
        os.write(self._answers[1], record.pack())

    def view(self, offset: int, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        """The array at byte ``offset`` of the payload space."""
        return np.ndarray(
            shape, np.dtype(dtype), buffer=self.mapping, offset=self._data + offset
        )

    def live(self) -> int:
        """Extents placed and not given back: the arena's ledger."""
        return int(np.count_nonzero(self._table[:, 0] > 0))

    @property
    def high_water(self) -> int:
        """Bytes from offset 0 that have ever held a payload."""
        return int(self._head[_HIGH])


@dataclass(frozen=True)
class EncodedBuffer:
    """The encoded form of one :class:`DataBuffer`.

    ``header`` is a pickle of the buffer with every exported array replaced
    by a persistent id that describes it: an array copied into the
    ``owner`` copy's arena by its offset in ``extent`` (``None`` when
    nothing was placed), shape and dtype string, and an array passed by
    reference by its file region, ``(path, byte offset, shape, dtype_str)``.
    ``placed`` and ``mapped`` list the same, ``placed`` at arena offsets.
    """

    header: bytes
    nbytes: int  # wire size of the original buffer (accounting convenience)
    mapped: tuple[_Mapped, ...] = ()
    owner: int = 0
    extent: "Extent | None" = None
    placed: tuple[_Placed, ...] = ()

    @property
    def shared_bytes(self) -> int:
        """Payload bytes placed in an arena."""
        return sum(_array_bytes(shape, dtype) for _offset, shape, dtype in self.placed)

    @property
    def mapped_bytes(self) -> int:
        """Payload bytes passed by reference to a read-only file mapping."""
        return sum(
            _array_bytes(shape, dtype) for _path, _offset, shape, dtype in self.mapped
        )


class PayloadLease:
    """The arena extent behind one decoded buffer.

    The decoded payload's arrays are *views into the producer's arena*; they
    are valid until :meth:`release` gives the extent back (the engine
    releases after the consuming filter's ``handle`` returns, as DataCutter
    recycles its stream buffers), after which the owner may overwrite them
    with its next payload.  A filter that must retain payload data beyond
    the callback copies it.  ``release`` is idempotent.
    """

    def __init__(
        self, arena: "Arena | None" = None, extent: "Extent | None" = None
    ) -> None:
        self._arena = arena
        self._extent = extent

    def release(self) -> None:
        """Give the extent back to its owner."""
        arena, self._arena = self._arena, None
        if arena is not None and self._extent is not None:
            arena.give_back(self._extent)


def _file_region(arr: np.ndarray) -> "_Mapped | None":
    """Where ``arr`` lives in a file, if it is shared memory already.

    That takes a C-contiguous, read-only view whose memory belongs to a
    ``np.memmap`` opened with ``mode="r"``: any process can map the same
    bytes, and nobody holding the view can change them.  Everything else —
    writeable, strided, ``r+``/``c`` maps (the owner may write), arrays not
    backed by a file — is ``None`` and travels by copy.
    """
    if arr.flags.writeable or not arr.flags.c_contiguous:
        return None
    root: Any = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not (
        isinstance(root, np.memmap)
        and isinstance(root.base, mmap.mmap)
        and root.mode == "r"
        and root.filename is not None
    ):
        return None
    # Only the root memmap's ``offset`` is its own (views inherit the
    # attribute unchanged), so measure from there by address.
    address = arr.__array_interface__["data"][0]
    offset = root.offset + address - root.__array_interface__["data"][0]
    return (str(root.filename), offset, arr.shape, arr.dtype.str)


class _ArenaPickler(pickle.Pickler):
    """Pickler that takes large arrays out of band.

    A read-only view into a file mapping becomes a descriptor of its file
    region; any other large array is set aside, to be placed in an arena
    once the whole header has pickled, at the extent-relative offset its
    persistent id names.
    """

    def __init__(self, fh: io.BytesIO) -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[tuple[np.ndarray, int]] = []  # (array, offset)
        self.size = 0  # bytes the arrays take, aligned
        self.mapped: list[_Mapped] = []

    def persistent_id(self, obj: Any) -> "_Placed | _Mapped | None":
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= OUT_OF_BAND_BYTES
            and obj.dtype != object
            and np.dtype(obj.dtype.str) == obj.dtype  # decodes from its string
        ):
            region = _file_region(obj)
            if region is not None:
                self.mapped.append(region)
                return region
            self.arrays.append((obj, self.size))
            self.size += _aligned(obj.nbytes)
            return (self.arrays[-1][1], obj.shape, obj.dtype.str)
        return None


class _ArenaUnpickler(pickle.Unpickler):
    """Unpickler that resolves persistent ids to arena and file views."""

    def __init__(
        self,
        fh: io.BytesIO,
        encoded: "EncodedBuffer",
        codec: "BufferCodec",
        arena: "Arena | None",
    ) -> None:
        super().__init__(fh)
        self.encoded = encoded
        self.codec = codec
        self.arena = arena

    def persistent_load(self, pid: Any) -> np.ndarray:
        if len(pid) == 4:
            return self.codec._mapped_view(*pid)
        assert self.arena is not None and self.encoded.extent is not None
        offset, shape, dtype = pid
        return self.arena.view(self.encoded.extent[2] + offset, shape, dtype)


class BufferCodec:
    """Serialise :class:`DataBuffer` objects for cross-process streams.

    Arrays of :data:`OUT_OF_BAND_BYTES` and more go out of band; the rest
    of the buffer pickles into the header.  The codec holds no allocation
    state and may be shared by every copy of a run: ``encode`` places into
    the arena it is given — the sending copy's — and ``decode`` reads from
    the owner's, so its only state is a per-process cache of the read-only
    file mappings it decoded from, and the arena a standalone codec (no
    ``arena`` argument) uses for itself.
    ``encode`` copies each large array once (into one extent of the arena)
    unless the array is a read-only view of a mapped file, which is
    described instead; ``decode`` returns views of the arena and of mapped
    files, zero-copy, and a :class:`PayloadLease` that gives the extent
    back.  Mapped regions need no lease: the file belongs to whoever wrote
    it and outlives the payload, and a view keeps its own mapping alive.
    """

    def __init__(self) -> None:
        #: path -> (st_dev, st_ino, whole-file read-only mapping)
        self._maps: dict[str, tuple[int, int, mmap.mmap]] = {}
        self._arena: "Arena | None" = None

    def arena(self) -> Arena:
        """The arena of a standalone codec (made on first use)."""
        if self._arena is None:
            self._arena = Arena()
        return self._arena

    def encode(self, buffer: DataBuffer, arena: "Arena | None" = None) -> EncodedBuffer:
        """Encode one buffer into ``arena``: its large arrays, then its header.

        A standalone codec (no ``arena``) keeps a buffer with no large
        array off its own arena; a copy's arena takes every buffer, as the
        wire names one extent.  Waits while the arena has no room; a
        payload larger than the whole arena raises
        :class:`~repro.errors.EngineError`.  An extent whose copy fails is
        given back.
        """
        fh = io.BytesIO()
        pickler = _ArenaPickler(fh)
        # The header pickles whole before anything is placed, so a payload
        # that cannot pickle has taken no space.
        pickler.dump(buffer)
        header = fh.getvalue()
        if not pickler.arrays and arena is None:
            return EncodedBuffer(header, buffer.nbytes, tuple(pickler.mapped))
        arena = arena if arena is not None else self.arena()
        extent = arena.place(pickler.size, len(header))
        placed: list[_Placed] = []
        try:
            arena.mapping[arena.header(extent, len(header))] = header
            for arr, start in pickler.arrays:
                offset = extent[2] + start
                arena.view(offset, arr.shape, arr.dtype.str)[...] = arr
                placed.append((offset, arr.shape, arr.dtype.str))
        except BaseException:
            arena.give_back(extent)
            raise
        return EncodedBuffer(
            header, buffer.nbytes, tuple(pickler.mapped),
            arena.owner, extent, tuple(placed),
        )

    def decode(
        self, encoded: EncodedBuffer, arena: "Arena | None" = None
    ) -> tuple[DataBuffer, PayloadLease]:
        """Decode one buffer zero-copy from its owner's ``arena``.

        The lease gives the extent back.  A payload that cannot be decoded
        (a mapped file gone or too short) raises with the extent given back.
        """
        if encoded.extent is not None and arena is None:
            arena = self.arena()
        unpickler = _ArenaUnpickler(io.BytesIO(encoded.header), encoded, self, arena)
        try:
            buffer: DataBuffer = unpickler.load()
        except BaseException:
            self.release_encoded(encoded, arena)
            raise
        return buffer, PayloadLease(arena, encoded.extent)

    def __getstate__(self) -> dict[str, Any]:
        # Neither a file mapping nor an arena crosses a pickle: the
        # receiving process maps files on first use, and its arena (if it
        # ever needs one) is its own, holding none of the sender's extents.
        return {**self.__dict__, "_maps": {}, "_arena": None}

    def _mapped_view(
        self, path: str, offset: int, shape: tuple[int, ...], dtype: str
    ) -> np.ndarray:
        """A read-only view of ``path``'s bytes from ``offset``.

        The file is checked by name on every call: touching a mapped page
        past the end of a file that shrank is a SIGBUS, not an exception.
        """
        end = offset + _array_bytes(shape, dtype)
        try:
            st = os.stat(path)
        except OSError as exc:
            raise EngineError(f"mapped payload {path}: file is gone ({exc})") from None
        if end > st.st_size:
            raise EngineError(
                f"mapped payload {path}: bytes {offset}..{end} requested, "
                f"file has {st.st_size}"
            )
        cached = self._maps.get(path)
        if (
            cached is None
            or cached[:2] != (st.st_dev, st.st_ino)
            or len(cached[2]) < end
        ):
            with open(path, "rb") as fh:
                mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            cached = self._maps[path] = (st.st_dev, st.st_ino, mapping)
        return np.ndarray(shape, np.dtype(dtype), buffer=cached[2], offset=offset)

    def release_encoded(self, encoded: EncodedBuffer, arena: "Arena | None" = None) -> None:
        """Give an encoded buffer's extent back without decoding it.

        Error paths (a sender abandoned mid-send, a decode that failed)
        call this so a discarded buffer never keeps its space.  Mapped
        regions are not the codec's to free.
        """
        if encoded.extent is not None:
            (arena if arena is not None else self.arena()).give_back(encoded.extent)


def chunk_bytes(total_bytes: int, buffer_size: int) -> list[int]:
    """Split ``total_bytes`` into fixed-size buffer payloads.

    Returns the byte count of each buffer: all ``buffer_size`` except a
    possibly smaller final one.  ``total_bytes == 0`` yields no buffers.
    """
    if buffer_size < 1:
        raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    full, rest = divmod(total_bytes, buffer_size)
    sizes = [buffer_size] * full
    if rest:
        sizes.append(rest)
    return sizes
