"""Data buffers: the unit of communication between filters.

All stream traffic is fixed-size buffers (paper Section 2).  A
:class:`DataBuffer` carries an explicit byte count (used by the simulated
engine for network/disk accounting) and an optional payload (real data, used
by the threaded/process engines and by trace-driven simulation).  ``tags`` is
an open dictionary for application metadata (chunk id, timestep, scanline
range...).

:class:`BufferCodec` serialises buffers for transport between transparent
copies that do not share an address space.  Large NumPy arrays anywhere in
the payload travel through ``multiprocessing.shared_memory`` segments (one
memcpy in, zero-copy attach out) while the remaining object structure rides
a small pickle header — the process engine's queues carry only the header
plus segment names.  One kind of large array is shared memory *already*: a
C-contiguous read-only view into a ``mode="r"`` file mapping (what the Read
filter streams from a :class:`~repro.data.diskstore.DeclusteredStore`).
Such an array travels as a ``(path, byte offset, shape, dtype)`` descriptor
and the consumer maps the same file — no segment, no copy.  The threaded
engine accepts the same codec (mostly for testing) so both real engines
share one wire format.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import EngineError

__all__ = [
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


#: A copied array: (segment name, shape, dtype string).
_Segment = tuple[str, tuple[int, ...], str]
#: An array passed by reference: (file path, byte offset, shape, dtype string).
_Mapped = tuple[str, int, tuple[int, ...], str]


def _array_bytes(shape: tuple[int, ...], dtype: str) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


@dataclass(frozen=True)
class EncodedBuffer:
    """The wire form of one :class:`DataBuffer` (cheap to pickle).

    ``header`` is a pickle of the buffer with every exported array replaced
    by a persistent-id reference; ``segments`` describes the shared-memory
    segment backing each copied array as ``(name, shape, dtype_str)`` and
    ``mapped`` the file region behind each array passed by reference as
    ``(path, byte offset, shape, dtype_str)``.
    """

    header: bytes
    segments: tuple[_Segment, ...]
    nbytes: int  # wire size of the original buffer (accounting convenience)
    mapped: tuple[_Mapped, ...] = ()

    @property
    def shared_bytes(self) -> int:
        """Payload bytes copied into shared-memory segments."""
        return sum(_array_bytes(shape, dtype) for _name, shape, dtype in self.segments)

    @property
    def mapped_bytes(self) -> int:
        """Payload bytes passed by reference to a read-only file mapping."""
        return sum(
            _array_bytes(shape, dtype) for _path, _offset, shape, dtype in self.mapped
        )


class PayloadLease:
    """Ownership of the shared-memory segments behind one decoded buffer.

    The decoded payload's arrays are *views into shared memory*; they stay
    valid until :meth:`release` is called (the engine releases after the
    consuming filter's ``handle`` returns, mirroring DataCutter's recycling
    of stream buffers).  A filter that must retain payload data beyond the
    callback copies it.  ``release`` is idempotent.
    """

    def __init__(self, shms: list[Any]) -> None:
        self._shms = shms

    def release(self) -> None:
        """Unlink the backing segments and drop this lease's references.

        The OS frees the memory once the last mapping closes — arrays still
        referencing a segment keep it mapped until they are garbage
        collected, so release never invalidates live views mid-use.
        """
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            # Detach the mapping from the SharedMemory wrapper before the
            # wrapper is garbage collected: its __del__ runs close(), which
            # unmaps the region even while NumPy views still point into it
            # (NumPy keeps the mmap alive via .base but holds no buffer
            # export that would block the unmap — readers would fault).
            # With the wrapper's references dropped, plain refcounting
            # makes the region live exactly as long as the last view.
            shm._buf = None
            shm._mmap = None
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                os.close(fd)
                shm._fd = -1


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


class _SegmentPickler(pickle.Pickler):
    """Pickler that takes large arrays out of band.

    A read-only view into a file mapping becomes a descriptor of its file
    region; any other large array is copied into a shared-memory segment.
    """

    def __init__(self, fh: io.BytesIO, threshold: int) -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.threshold = threshold
        self.segments: list[Any] = []  # SharedMemory objects
        self.descriptors: list[_Segment] = []
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

            from multiprocessing import shared_memory

            arr = np.ascontiguousarray(obj)
            seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
            np.ndarray(arr.shape, arr.dtype, buffer=seg.buf)[...] = arr
            self.segments.append(seg)
            self.descriptors.append((seg.name, arr.shape, arr.dtype.str))
            return len(self.descriptors) - 1
        return None


class _SegmentUnpickler(pickle.Unpickler):
    """Unpickler that resolves persistent ids to shared-memory arrays."""

    def __init__(
        self, fh: io.BytesIO, encoded: "EncodedBuffer", codec: "BufferCodec"
    ) -> None:
        super().__init__(fh)
        self.encoded = encoded
        self.codec = codec
        self.shms: list[Any] = []

    def persistent_load(self, pid: Any) -> np.ndarray:
        if isinstance(pid, tuple):
            return self.codec._mapped_view(*self.encoded.mapped[pid[1]])

        from multiprocessing import shared_memory

        name, shape, dtype = self.encoded.segments[pid]
        shm = shared_memory.SharedMemory(name=name)
        self.shms.append(shm)
        return np.ndarray(shape, np.dtype(dtype), buffer=shm.buf)


class BufferCodec:
    """Serialise :class:`DataBuffer` objects for cross-process streams.

    Parameters
    ----------
    shm_threshold:
        Arrays of at least this many bytes go out of band; smaller ones
        (and object-dtype arrays) pickle inline in the header.  The
        default (64 KiB) keeps headers under a pipe write while moving
        every scalar block / triangle array / z-buffer slab out of band.
    use_shared_memory:
        ``False`` pickles everything inline — useful on platforms without
        POSIX shared memory or for debugging; the wire format is unchanged
        (``segments`` and ``mapped`` are simply empty).

    The codec is fork-safe and may be shared by every copy of a run; its
    only state is a per-process cache of the read-only file mappings it
    decoded from.  ``encode`` copies each large array once (into its
    segment) unless the array is a read-only view of a mapped file, which
    is described instead; ``decode`` attaches segments and maps files
    zero-copy and returns a :class:`PayloadLease` governing the segments'
    lifetime.  Mapped regions need no lease: the file belongs to whoever
    wrote it and outlives the payload, and a view keeps its own mapping
    alive.
    """

    def __init__(self, shm_threshold: int = 64 * 1024, use_shared_memory: bool = True):
        if shm_threshold < 1:
            raise ValueError(f"shm_threshold must be >= 1, got {shm_threshold}")
        self.shm_threshold = shm_threshold
        self.use_shared_memory = use_shared_memory
        #: path -> (st_dev, st_ino, whole-file read-only mapping)
        self._maps: dict[str, tuple[int, int, mmap.mmap]] = {}

    def encode(self, buffer: DataBuffer) -> EncodedBuffer:
        """Encode one buffer; creates the backing shared-memory segments."""
        fh = io.BytesIO()
        if not self.use_shared_memory:
            pickle.dump(buffer, fh, protocol=pickle.HIGHEST_PROTOCOL)
            return EncodedBuffer(fh.getvalue(), (), buffer.nbytes)
        pickler = _SegmentPickler(fh, self.shm_threshold)
        pickler.dump(buffer)
        # Close our mapping now; the segments stay alive (named) until
        # the consumer unlinks them via its PayloadLease.
        for seg in pickler.segments:
            seg.close()
        return EncodedBuffer(
            fh.getvalue(), tuple(pickler.descriptors), buffer.nbytes,
            tuple(pickler.mapped),
        )

    def decode(self, encoded: EncodedBuffer) -> tuple[DataBuffer, PayloadLease]:
        """Decode one buffer zero-copy; the lease controls segment lifetime.

        A payload that cannot be decoded (a mapped file gone or too short)
        raises with every segment of the buffer released.
        """
        unpickler = _SegmentUnpickler(io.BytesIO(encoded.header), encoded, self)
        try:
            buffer: DataBuffer = unpickler.load()
        except BaseException:
            self.release_encoded(encoded)
            raise
        return buffer, PayloadLease(unpickler.shms)

    def __getstate__(self) -> dict[str, Any]:
        # A mapping does not cross a pickle (the ``spawn`` start method);
        # the receiving process maps on first use.
        return {**self.__dict__, "_maps": {}}

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

    @staticmethod
    def release_encoded(encoded: EncodedBuffer) -> None:
        """Free an encoded buffer's segments without decoding it.

        Error paths (a consumer draining its queue after a failure) call
        this so discarded buffers never leak shared memory.  Mapped
        regions are not the codec's to free.
        """
        from multiprocessing import shared_memory

        for name, _shape, _dtype in encoded.segments:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            shm.unlink()
            shm.close()


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
