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
so every copy maps every arena — while the remaining object structure
rides a small pickle header: the process engine's queues carry only the
header plus an extent descriptor.  The consumer decodes views into the
owner's arena and gives the extent back once its ``handle`` returns; the
owner reuses the space first-fit.  No named object is created, so nothing
can outlive the processes that map an arena.  One kind of large array is
shared memory *already*: a C-contiguous read-only view into a ``mode="r"``
file mapping (what the Read filter streams from a
:class:`~repro.data.diskstore.DeclusteredStore`).  Such an array travels as
a ``(path, byte offset, shape, dtype)`` descriptor and the consumer maps the
same file — no arena, no copy.  The threaded engine accepts the same codec
(mostly for testing) so both real engines share one wire format.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, TypeVar

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ARENA_BYTES",
    "Arena",
    "DataBuffer",
    "chunk_bytes",
    "BufferCodec",
    "EncodedBuffer",
    "PayloadLease",
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

#: Extents one arena can hold at once (one record each in its table).
_RECORDS = 128
#: Header words ahead of the record table: the last extent id handed out,
#: the high-water mark in bytes, and how many waiters sleep on the bell.
_NEXT, _HIGH, _WAITING = 0, 1, 2
_HEAD_WORDS = 3
#: Header word of the first ack counter: right after the record table.
_ACKS = _HEAD_WORDS + 3 * _RECORDS
#: Alignment of every extent and of every array inside one.
_ALIGN = 64
#: Seconds a give-back or an ack waits for the arena lock.  The lock is held
#: for microseconds; one that cannot be had died with a copy killed inside
#: an update, and the arena is then lost with that copy anyway.
_LOCK_BOUND = 1.0

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


class Arena:
    """One producing copy's back-channel: an anonymous ``MAP_SHARED`` mapping.

    The engines make one per producing copy before the copies fork, so every
    copy inherits every arena at the same addresses.  It carries everything
    a consumer answers its producer with.  The owner places each encoded
    buffer's arrays in one extent (:meth:`place`); whoever decodes or
    discards the buffer gives it back (:meth:`give_back`).  A consumer
    acknowledges a buffer by counting up one of ``acks`` — ``counters``
    words the engines lay out per (slot, output stream, target copy set) —
    with :meth:`acknowledge`.  Both answers go through ``lock`` and the
    header that lives in the mapping itself, so the lock orders a
    consumer's reads of an extent before the owner reuses its bytes, and
    any process — the parent included — can read the ledger (:meth:`live`).
    Both ring ``bell``, and the owner waits for either in one loop
    (:meth:`wait`): for a hole (first fit from offset 0) or for window room.

    ``lock`` and ``bell`` default to thread primitives (copies that share a
    process); forked copies get ``multiprocessing`` ones.  An arena does not
    pickle: its bytes are shared by inheritance only.
    """

    def __init__(
        self, owner: int = 0, lock: Any = None, bell: Any = None, counters: int = 0
    ) -> None:
        self.owner = owner
        self.capacity = ARENA_BYTES
        words = _ACKS + counters
        #: Offset of the first payload byte: the header, page-aligned.
        self._data = -(-8 * words // mmap.PAGESIZE) * mmap.PAGESIZE
        # Anonymous and MAP_SHARED (mmap's default flags): zero-filled, so
        # the header starts empty, and shared with every later fork.
        self.mapping = mmap.mmap(-1, self._data + self.capacity)
        head = np.ndarray((words,), np.int64, buffer=self.mapping)
        self._head = head[:_HEAD_WORDS]
        #: Per record: (extent id or 0 when free, byte offset, byte count).
        self._table = head[_HEAD_WORDS:_ACKS].reshape(_RECORDS, 3)
        #: Acknowledgments counted so far, one word per counter; they only grow.
        self.acks = head[_ACKS:]
        self._lock = lock if lock is not None else threading.Lock()
        self._bell = bell if bell is not None else threading.Semaphore(0)

    def wait(self, attempt: Callable[[], "T | None"]) -> tuple[T, bool]:
        """Run ``attempt`` under the lock until it returns something (owner
        side), sleeping on the bell in between; also says whether it slept."""
        waited = False
        while True:
            with self._lock:
                got = attempt()
                if got is None:
                    self._head[_WAITING] += 1
            if got is not None:
                return got, waited
            self._bell.acquire()
            waited = True

    def place(self, nbytes: int) -> Extent:
        """Take an extent of ``nbytes`` (owner side); waits while none fits."""
        size = _aligned(nbytes)
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

    def give_back(self, extent: Extent) -> None:
        """Return an extent to its owner; a second give-back is a no-op."""
        record, xid = extent[0], extent[1]

        def free() -> None:
            if self._table[record, 0] == xid:
                self._table[record, 0] = 0

        self._answer(free)

    def acknowledge(self, counter: int) -> None:
        """Count one acknowledgment on ``counter`` (consumer side)."""

        def count() -> None:
            self.acks[counter] += 1

        self._answer(count)

    def _answer(self, update: Callable[[], None]) -> None:
        """Apply a consumer's ``update`` under the lock and ring the bell for
        every waiter.  The acquire is bounded: see ``_LOCK_BOUND``."""
        if not self._lock.acquire(timeout=_LOCK_BOUND):
            return
        try:
            update()
            waiting = int(self._head[_WAITING])
            self._head[_WAITING] = 0
        finally:
            self._lock.release()
        for _ in range(waiting):
            self._bell.release()

    def view(self, offset: int, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        """The array at byte ``offset`` of the payload space."""
        return np.ndarray(
            shape, np.dtype(dtype), buffer=self.mapping, offset=self._data + offset
        )

    def live(self) -> int:
        """Extents placed and not given back: the arena's ledger."""
        with self._lock:
            return int(np.count_nonzero(self._table[:, 0]))

    @property
    def high_water(self) -> int:
        """Bytes from offset 0 that have ever held a payload."""
        return int(self._head[_HIGH])


@dataclass(frozen=True)
class EncodedBuffer:
    """The wire form of one :class:`DataBuffer` (cheap to pickle).

    ``header`` is a pickle of the buffer with every exported array replaced
    by a persistent-id reference.  ``placed`` describes each array copied
    into the ``owner`` copy's arena as ``(byte offset, shape, dtype_str)``,
    all inside one ``extent`` (``None`` when nothing was placed), and
    ``mapped`` the file region behind each array passed by reference as
    ``(path, byte offset, shape, dtype_str)``.
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
    once the whole header has pickled.
    """

    def __init__(self, fh: io.BytesIO, threshold: int) -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.threshold = threshold
        self.arrays: list[np.ndarray] = []
        self.mapped: list[_Mapped] = []

    def persistent_id(self, obj: Any) -> "int | tuple[str, int] | None":
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= self.threshold
            and obj.dtype != object
        ):
            region = _file_region(obj)
            if region is not None:
                self.mapped.append(region)
                return ("mapped", len(self.mapped) - 1)
            self.arrays.append(obj)
            return len(self.arrays) - 1
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
        if isinstance(pid, tuple):
            return self.codec._mapped_view(*self.encoded.mapped[pid[1]])
        assert self.arena is not None
        return self.arena.view(*self.encoded.placed[pid])


class BufferCodec:
    """Serialise :class:`DataBuffer` objects for cross-process streams.

    Parameters
    ----------
    shm_threshold:
        Arrays of at least this many bytes go out of band; smaller ones
        (and object-dtype arrays) pickle inline in the header.  The
        default (64 KiB) keeps headers under a pipe write while moving
        every scalar block / triangle array / z-buffer slab out of band; a
        threshold above every array pickles everything inline.

    The codec holds no allocation state and may be shared by every copy of
    a run: ``encode`` places into the arena it is given — the sending
    copy's — and ``decode`` reads from the owner's, so its only state is a
    per-process cache of the read-only file mappings it decoded from, and
    the arena a standalone codec (no ``arena`` argument) uses for itself.
    ``encode`` copies each large array once (into one extent of the arena)
    unless the array is a read-only view of a mapped file, which is
    described instead; ``decode`` returns views of the arena and of mapped
    files, zero-copy, and a :class:`PayloadLease` that gives the extent
    back.  Mapped regions need no lease: the file belongs to whoever wrote
    it and outlives the payload, and a view keeps its own mapping alive.
    """

    def __init__(self, shm_threshold: int = 64 * 1024):
        if shm_threshold < 1:
            raise ValueError(f"shm_threshold must be >= 1, got {shm_threshold}")
        self.shm_threshold = shm_threshold
        #: path -> (st_dev, st_ino, whole-file read-only mapping)
        self._maps: dict[str, tuple[int, int, mmap.mmap]] = {}
        self._arena: "Arena | None" = None

    def arena(self) -> Arena:
        """The arena of a standalone codec (made on first use)."""
        if self._arena is None:
            self._arena = Arena()
        return self._arena

    def encode(self, buffer: DataBuffer, arena: "Arena | None" = None) -> EncodedBuffer:
        """Encode one buffer, placing its large arrays in ``arena``.

        Waits while the arena has no room; a payload larger than the whole
        arena raises :class:`~repro.errors.EngineError`.
        """
        fh = io.BytesIO()
        pickler = _ArenaPickler(fh, self.shm_threshold)
        # The header pickles whole before anything is placed, so a payload
        # that cannot pickle has taken no space.
        pickler.dump(buffer)
        if not pickler.arrays:
            return EncodedBuffer(fh.getvalue(), buffer.nbytes, tuple(pickler.mapped))
        arena = arena if arena is not None else self.arena()
        starts: list[int] = []
        total = 0
        for arr in pickler.arrays:
            starts.append(total)
            total += _aligned(arr.nbytes)
        extent = arena.place(total)
        placed: list[_Placed] = []
        for arr, start in zip(pickler.arrays, starts):
            offset = extent[2] + start
            arena.view(offset, arr.shape, arr.dtype.str)[...] = arr
            placed.append((offset, arr.shape, arr.dtype.str))
        return EncodedBuffer(
            fh.getvalue(), buffer.nbytes, tuple(pickler.mapped),
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
