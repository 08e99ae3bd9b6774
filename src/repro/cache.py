"""Memoisation-certified result cache for the serve path.

Isosurface traffic is highly repetitive — the same dataset, a handful of
popular isovalues, nearby views — yet every warm-pool query would pay
Read + Extract + Raster in full.  This module supplies the
content-addressed, capacity-bounded cache ``repro serve`` answers such
traffic from.  Its one tier in use is ``tiles``: rendered frames keyed by
the request (``repro.serve.frame_key``), one entry per frame
(:class:`CachedFrame`: a frame is its one full-viewport tile), held as the
base64 PPM a response carries; a hit answers the query without running
the pipeline or encoding the frame again.  A miss runs the whole
pipeline, Read and Extract in their copies.

The certify-before-memoise contract
-----------------------------------
A cache may only attach to a subgraph that
:func:`repro.analysis.effects.certify_memoisable` passes: every member
declared ``effects="pure"`` and the member set convex.  :func:`bind_cache`
enforces this — a rejected subgraph raises
:class:`~repro.errors.AnalysisError` carrying the certifier's E703/E705
findings plus the E706
(*cache-over-uncertified-subgraph*) diagnostic.  Cache keys start from
:func:`subgraph_signature`, a digest of the members' **static**
``FilterSpec`` metadata (source-ness, phase discipline, declared effects,
stream topology), so a key can never match across pipelines whose
declared semantics differ.

The cache itself (:class:`ResultCache`) is a thread-safe, byte-budgeted
LRU; hits account the bytes they saved, which the serve layer surfaces in
each response's ``cache`` block and as ``cache_hit``/``cache_miss`` trace
events.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.effects import MemoCertificate, certify_memoisable
from repro.analysis.rules import RULES
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.graph import FilterGraph

__all__ = [
    "TIERS",
    "CacheBinding",
    "CachedFrame",
    "ResultCache",
    "bind_cache",
    "content_key",
    "subgraph_signature",
    "verify_cache_attachment",
]

#: The cache tiers.  Serve fills only ``tiles``; ``triangles`` stays because
#: ``benchmarks/perf/ladder.py`` prices a put and a get in it and reads
#: ``by_tier["triangles"]``, until the benchmark drops that pricing.
TIERS = ("triangles", "tiles")


# -- content addressing ------------------------------------------------------
def _feed(h: "hashlib._Hash", part: Any) -> None:
    """Canonicalise one key part into the digest.

    Every branch writes a type marker first so e.g. ``1`` and ``"1"``
    and ``1.0`` can never collide; floats hash their exact ``repr`` (the
    shortest round-tripping decimal), arrays hash dtype + shape + raw
    bytes.
    """
    if part is None:
        h.update(b"N;")
    elif isinstance(part, bool):
        h.update(b"b" + (b"1" if part else b"0") + b";")
    elif isinstance(part, int):
        h.update(b"i" + str(part).encode() + b";")
    elif isinstance(part, float):
        h.update(b"f" + repr(part).encode() + b";")
    elif isinstance(part, str):
        h.update(b"s" + part.encode("utf-8") + b";")
    elif isinstance(part, bytes):
        h.update(b"y" + part + b";")
    elif isinstance(part, np.ndarray):
        h.update(
            b"a" + str(part.dtype).encode() + str(part.shape).encode() + b":"
        )
        h.update(np.ascontiguousarray(part).tobytes())
        h.update(b";")
    elif isinstance(part, (tuple, list)):
        h.update(b"(")
        for item in part:
            _feed(h, item)
        h.update(b")")
    elif isinstance(part, Mapping):
        h.update(b"{")
        for key in sorted(part):
            _feed(h, key)
            _feed(h, part[key])
        h.update(b"}")
    else:
        raise ConfigurationError(
            f"cache keys must be built from scalars, arrays and containers; "
            f"got {type(part).__name__}"
        )


def content_key(*parts: Any) -> str:
    """A stable sha256 digest over canonicalised key parts."""
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()[:24]


def subgraph_signature(graph: "FilterGraph", members: Iterable[str]) -> str:
    """Digest the *static* FilterSpec metadata of a subgraph.

    Covers, per member: source-ness, phase discipline, declared effects
    class and the member-incident stream topology — everything the static
    metadata says about the subgraph's semantics, and nothing about the
    live instances.  Two pipelines share cache entries only when these
    digests match.
    """
    names = tuple(dict.fromkeys(members))
    specs = []
    for name in names:
        spec = graph.filters.get(name)
        if spec is None:
            raise ConfigurationError(f"unknown filter {name!r} in subgraph")
        specs.append(
            (
                spec.name,
                bool(spec.is_source),
                bool(spec.phase_synchronised),
                spec.effects,
            )
        )
    edges = sorted(
        (stream.src, stream.dst, stream.name)
        for stream in graph.streams.values()
        if stream.src in names or stream.dst in names
    )
    return content_key("subgraph", tuple(specs), tuple(edges))


# -- cached values -----------------------------------------------------------
@dataclass(frozen=True)
class CachedFrame:
    """``tiles`` value: one rendered frame, encoded, and its merge facts.

    ``frame_b64`` is the frame in the form a response carries it — the
    base64 of its binary PPM, encoded once, on the miss — and the other
    fields are everything else a response says about its frame
    (``active_pixels``, ``buffers_merged``), so a hit rebuilds the
    response from this entry alone and encodes nothing.  ``nbytes``
    charges the encoded string, which is what stays resident.
    """

    frame_b64: str
    active_pixels: int
    buffers_merged: int

    @property
    def nbytes(self) -> int:
        return len(self.frame_b64) + 32


# -- the byte-budgeted LRU ---------------------------------------------------
class ResultCache:
    """A thread-safe, capacity-bounded (LRU, byte-budgeted) cache.

    Entries live in one LRU ring keyed by ``(tier, key)``; inserting
    past ``capacity_bytes`` evicts least-recently-used entries (of any
    tier) until the newcomer fits.  Values larger than the whole budget
    are rejected rather than flushing the cache.  ``get`` counts hits
    and misses per tier and accounts ``bytes_saved`` — the stored size
    of every hit, i.e. the bytes the pipeline did not have to
    recompute.
    """

    def __init__(self, capacity_bytes: int, name: str = "cache"):
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[tuple[str, str], tuple[Any, int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.size_bytes = 0
        self.insertions = 0
        self.evictions = 0
        self.rejected = 0
        self.bytes_saved = 0
        self._hits: dict[str, int] = dict.fromkeys(TIERS, 0)
        self._misses: dict[str, int] = dict.fromkeys(TIERS, 0)
        self._evictions: dict[str, int] = dict.fromkeys(TIERS, 0)

    @staticmethod
    def _check_tier(tier: str) -> None:
        if tier not in TIERS:
            raise ConfigurationError(
                f"unknown cache tier {tier!r}; expected one of {TIERS}"
            )

    def get(self, tier: str, key: str) -> Any:
        """The cached value, or ``None`` (counts a hit or a miss)."""
        self._check_tier(tier)
        with self._lock:
            entry = self._entries.get((tier, key))
            if entry is None:
                self._misses[tier] += 1
                return None
            self._entries.move_to_end((tier, key))
            self._hits[tier] += 1
            self.bytes_saved += entry[1]
            return entry[0]

    def put(self, tier: str, key: str, value: Any, nbytes: int) -> bool:
        """Insert a value; evict LRU entries until it fits.

        Returns False (and counts a rejection) when ``nbytes`` exceeds
        the whole budget — one oversized value must not wipe the cache.
        """
        self._check_tier(tier)
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            if nbytes > self.capacity_bytes:
                # checked first: a refused replacement keeps the old value
                self.rejected += 1
                return False
            old = self._entries.pop((tier, key), None)
            if old is not None:
                self.size_bytes -= old[1]
            while self.size_bytes + nbytes > self.capacity_bytes:
                (evicted_tier, _key), (_value, evicted_nbytes) = (
                    self._entries.popitem(last=False)
                )
                self.size_bytes -= evicted_nbytes
                self.evictions += 1
                self._evictions[evicted_tier] += 1
            self._entries[(tier, key)] = (value, nbytes)
            self.size_bytes += nbytes
            self.insertions += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> "dict[str, Any]":
        """A snapshot for dashboards and the serve ``stats`` command."""
        with self._lock:
            hits = sum(self._hits.values())
            misses = sum(self._misses.values())
            resident = {tier: [0, 0] for tier in TIERS}
            for (tier, _key), (_value, nbytes) in self._entries.items():
                resident[tier][0] += 1
                resident[tier][1] += nbytes
            return {
                "name": self.name,
                "capacity_bytes": self.capacity_bytes,
                "size_bytes": self.size_bytes,
                "entries": len(self._entries),
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4)
                if hits + misses
                else 0.0,
                "by_tier": {
                    tier: {
                        "hits": self._hits[tier],
                        "misses": self._misses[tier],
                        "entries": resident[tier][0],
                        "size_bytes": resident[tier][1],
                        "evictions": self._evictions[tier],
                    }
                    for tier in TIERS
                },
                "insertions": self.insertions,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "bytes_saved": self.bytes_saved,
            }


# -- certification gate ------------------------------------------------------
@dataclass(frozen=True)
class CacheBinding:
    """A cache attached to a certified subgraph of one pipeline.

    Constructed only through :func:`bind_cache`, so holding a binding
    *is* the proof that ``certify_memoisable`` passed; ``signature`` is
    the static-metadata digest every key of this binding starts from.
    """

    cache: ResultCache
    members: tuple[str, ...]
    signature: str
    certificate: MemoCertificate


def verify_cache_attachment(
    graph: "FilterGraph", members: Iterable[str]
) -> MemoCertificate:
    """Certify ``members`` for caching; flag E706 on a rejection.

    Runs :func:`certify_memoisable` and, when the certificate is
    refused, appends the E706 *cache-over-uncertified-subgraph* ERROR to
    the certificate's report (alongside the E703/E705 findings that
    justify it).  The caller decides whether to raise — engines refuse,
    linters report.
    """
    certificate = certify_memoisable(graph, members)
    if not certificate.ok:
        causes = sorted({d.rule for d in certificate.report.diagnostics})
        certificate.report.append(
            RULES["E706"].diagnostic(
                ",".join(certificate.subgraph),
                f"a result cache is configured over subgraph "
                f"{list(certificate.subgraph)} but certify_memoisable() "
                f"rejects it ({', '.join(causes)}); memoised replies could "
                f"differ from live ones",
            )
        )
    return certificate


def bind_cache(
    graph: "FilterGraph", members: Iterable[str], cache: ResultCache
) -> CacheBinding:
    """Attach ``cache`` to a subgraph, or refuse with E703–E706.

    Raises :class:`~repro.errors.AnalysisError` (report attached) when
    the subgraph is not certifiably memoisable.
    """
    certificate = verify_cache_attachment(graph, members)
    if not certificate.ok:
        certificate.report.raise_errors()
    return CacheBinding(
        cache=cache,
        members=certificate.subgraph,
        signature=subgraph_signature(graph, certificate.subgraph),
        certificate=certificate,
    )
