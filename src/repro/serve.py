"""``repro serve``: a long-lived isosurface query service on warm pools.

The paper's pipelines are meant to serve interactive exploration — "the
client specifies a region of interest, an isovalue and a viewing screen" —
but the batch engines cold-spawn every process per run.  This module turns
the real pipeline into a query service in the paper's client/server
shape: a thin asyncio frontend accepts JSON queries over TCP, multiplexes
them onto :class:`~repro.engines.pool.WarmPool` pipelines kept warm
between queries, and returns rendered frames.

Read path: a scene is generated once, at its first use, straight into a
Hilbert-declustered :class:`~repro.data.diskstore.DeclusteredStore` in a
temporary directory the service owns (removed by :meth:`QueryService.
close`).  Every query's Read copies stream memory-mapped chunks from those
files, and on one host the codec hands them to Extract by reference — a
file region descriptor, no copy (:mod:`repro.core.buffer`).  Only the
chunks the isosurface can cross are read: the store records each chunk's
value range, and Read and the front-end's own extraction both skip a chunk
whose range rules out a triangle at the query's isovalue
(:func:`repro.viz.filters.chunks_needed`); the response's
``chunks`` is ``[needed, stored]`` for the query's timestep.

Protocol: newline-delimited JSON, one request per line, one response per
line (stdlib only — no HTTP).  Requests::

    {"cmd": "query", "isovalue": 0.4, "timestep": 1,
     "view": {"azimuth": 60, "elevation": 30}, "trace": false}
    {"cmd": "ping"} | {"cmd": "stats"} | {"cmd": "shutdown"}

``cmd`` defaults to ``"query"``.  A query response carries the frame as a
base64 PPM (``frame_b64``), per-query latency, stream/ack totals and a
``warm`` flag (False when this query cold-built its pool).  Admission is
bounded: beyond ``admission_limit`` concurrently running queries the server
answers ``{"ok": false, "rejected": true}`` immediately instead of queueing
without bound.  Every request line gets a response line: an invalid request
or a pipeline failure answers ``{"ok": false, "error": ...}``, so does an
unexpected exception inside ``render`` (counted in ``queries_failed``,
traceback on stderr), and so does a line over the 64 KiB stream limit —
after which that one connection is closed, as it cannot resynchronise.

Query → pipeline binding: the (scene, configuration, algorithm, image
size, policy, copies) tuple keys the pool — those parameters are baked
into filter instances at construction.  The per-query knobs (isovalue,
timestep, camera orbit) ride the unit of work and are honoured by the viz
filters via their ``ctx.uow`` overrides, so successive queries reuse the
same warm processes.

Result caching (``cache_mb > 0``)
---------------------------------
Repetitive traffic is served through the two :mod:`repro.cache` tiers: one
cache for the service, shared by every pool, so popular content is shared
across configurations, image sizes and merge fan-outs.  What is certified
is the stage definition, what is keyed is the request.  The triangle tier
holds what the Extract stage computes — the front-end runs its kernel
(:meth:`QueryService._extract_triangles`) and injects the result through
``uow["triangles"]`` whatever node carries the stage — so the service asks
:func:`repro.analysis.effects.certify_memoisable` once, before its first
probe, about that stage where it is a node of its own (``E`` of
``R-E-Ra-M``, through :func:`repro.cache.bind_cache`), and all four
configurations take the same path under that one certificate.  A refusal
(E703/E706 — reachable only by changing the Extract definition) is
surfaced in every response's ``cache`` block and the service runs
uncached.  Both keys are functions of the request alone
(:func:`cache_keys`) and the probe order is tiles → triangles → pipeline:
a repeat query is one tile-tier lookup, answered without a pool; on a
triangle-tier hit (a new view at a cached isovalue) the cached per-chunk
triangles ride ``uow["triangles"]`` and the Read/Extract stages skip
storage and marching cubes.  An invalid request raises before any probe
and never touches the cache.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import tempfile
import threading
import time
import traceback
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cache import (
    CacheBinding,
    CachedFrame,
    ResultCache,
    bind_cache,
    content_key,
    make_triangle_set,
)
from repro.configurations import CONFIGURATIONS, check_algorithm
from repro.core.policies import make_policy_factory
from repro.engines.pool import PoolManager, WarmPool
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    EngineError,
    ReproError,
)

__all__ = [
    "Query", "QueryService", "SceneSpec", "cache_keys", "ppm_bytes",
    "run_server",
]

#: What a query's cache probes did so far: ``(tier, "hit" | "miss", bytes)``.
_Events = list[tuple[str, str, int]]


def ppm_bytes(image) -> bytes:
    """Serialise an (H, W, 3) uint8 image as binary PPM (P6)."""
    height, width = image.shape[:2]
    return f"P6 {width} {height} 255\n".encode() + image.tobytes()


def _coerce_int(
    value: Any,
    name: str,
    minimum: "int | None" = None,
    maximum: "int | None" = None,
) -> int:
    """A request field as an int, or :class:`ConfigurationError`.

    Bare ``int("banana")`` / ``int(None)`` / ``int(float("inf"))`` (what
    ``json.loads`` makes of ``1e999`` and ``Infinity``) raise
    ``ValueError`` / ``TypeError`` / ``OverflowError``; a request field
    that cannot be coerced or is out of range is a bad request, so each is
    the same configuration error.
    """
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if isinstance(value, float) and value != out:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise ConfigurationError(f"{name} must be <= {maximum}, got {out}")
    return out


def _coerce_float(value: Any, name: str) -> float:
    """A request field as a finite float, or :class:`ConfigurationError`."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(out):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class SceneSpec:
    """One servable dataset: the quickstart scene's knobs, named.

    The service generates the ParSSim dataset once, at first use, into a
    declustered store on one host — the serving testbed is a single
    machine, where transparent copies (one process each) supply the
    parallelism — and serves every query from those files.
    """

    name: str
    grid: int = 33
    timesteps: int = 3
    species: int = 2
    nchunks: int = 27
    nfiles: int = 8
    seed: int = 7
    isovalue: float = 0.35

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.grid, self.grid, self.grid)


@dataclass(frozen=True)
class Query:
    """One validated query: everything a request says about its frame."""

    scene: SceneSpec
    config: str
    algorithm: str
    width: int
    height: int
    isovalue: float
    timestep: int
    merge_copies: int
    orbit: "tuple[float, float] | None"  # (azimuth, elevation) in degrees


def cache_keys(signature: str, query: Query) -> "tuple[str, str]":
    """``(triangle key, frame key)`` of a query under a certified subgraph.

    Both are functions of the request alone.  The scene facts fully
    determine the generated dataset and ``(nchunks, nfiles)`` the
    declustered chunk partition, so with a certified-pure Extract over a
    deterministic Read they determine the triangles; the frame key adds
    what Raster and Merge see of the request.  A frame is therefore found
    by its request whether or not its triangle arrays are still resident.
    """
    scene = query.scene
    triangle_key = content_key(
        "tri", signature,
        ("scene", scene.name, scene.grid, scene.timesteps, scene.species,
         scene.seed),
        ("chunks", scene.nchunks, scene.nfiles),
        query.timestep, query.isovalue,
    )
    frame_key = content_key(
        "frame", triangle_key, query.orbit or "default-camera",
        query.width, query.height, query.algorithm, query.config,
        query.merge_copies,
    )
    return triangle_key, frame_key


class QueryService:
    """Render isosurface queries on pooled pipelines.

    ``render`` is synchronous and thread-safe — the asyncio frontend calls
    it through an executor.  Pools are cached in a
    :class:`~repro.engines.pool.PoolManager` keyed by pipeline identity;
    the first query for a key pays the cold build (fork + filter
    construction), subsequent ones run warm.  With ``cache_mb > 0``
    results are memoised through :mod:`repro.cache` (see the module
    docstring for tiering and the certification contract).
    """

    def __init__(
        self,
        scenes: "list[SceneSpec] | None" = None,
        config: str = "RE-Ra-M",
        algorithm: str = "active",
        width: int = 256,
        height: int = 256,
        policy: str = "DD",
        copies: int = 2,
        merge_copies: int = 1,
        max_pools: int = 4,
        max_inflight: int = 2,
        pool_idle_timeout: "float | None" = 300.0,
        cache_mb: float = 0.0,
    ):
        if cache_mb < 0:
            raise ConfigurationError(
                f"cache_mb must be >= 0, got {cache_mb}"
            )
        scenes = scenes or [SceneSpec("default")]
        self.scenes = {scene.name: scene for scene in scenes}
        self.default_scene = scenes[0].name
        self.config = config
        self.algorithm = algorithm
        self.width = width
        self.height = height
        self.merge_copies = merge_copies
        # The service's defaults are request fields nobody sent: a service
        # whose default query is a bad request would fail every query, and
        # bad pool settings only after a scene's store was written.
        for scene in scenes:
            self._parse({"dataset": scene.name})
        make_policy_factory(policy)
        self.policy = policy
        self.copies = _coerce_int(copies, "copies", minimum=1)
        self.max_inflight = _coerce_int(max_inflight, "max_inflight", minimum=1)
        self.pools = PoolManager(
            max_pools=max_pools, idle_timeout=pool_idle_timeout
        )
        self.cache_mb = float(cache_mb)
        #: the one result cache, shared by every pool (None: caching off)
        self._cache: "ResultCache | None" = None
        if self.cache_mb > 0:
            self._cache = ResultCache(
                int(self.cache_mb * 2**20), name="serve-shared"
            )
        #: the cache bound to the Extract stage definition, certified once,
        #: before the first probe (None: caching off, not asked yet, refused)
        self._binding: "CacheBinding | None" = None
        #: the certifier's E703/E706 text when it refused: served uncached
        self._cache_refusal: "str | None" = None
        #: scene name -> (store, profile, storage), made at first use
        self._assets: "dict[str, tuple[Any, Any, Any]]" = {}
        #: scene name -> the directory its store lives in; a directory is
        #: removed by close(), or with the service if it is never closed
        self._store_dirs: "dict[str, tempfile.TemporaryDirectory[str]]" = {}
        self._assets_lock = threading.Lock()
        #: served queries by how far they had to go: the tile tier, the
        #: triangle tier + Raster/Merge, or the whole pipeline
        self._served = {"tile_hit": 0, "triangle_hit": 0, "cold": 0}
        #: chunks the served pipeline runs needed, of those their timesteps
        #: store (tile hits run no pipeline and count nothing)
        self._chunks_needed = self._chunks_total = 0
        self.queries_failed = 0
        self._count_lock = threading.Lock()

    # -- pipeline construction ----------------------------------------------
    def _scene_assets(self, scene: SceneSpec) -> "tuple[Any, Any, Any]":
        """(store, profile, storage) for a scene, made once and reused.

        One pass over the generator profiles the scene and writes its
        declustered store; pools (also rebuilt ones) read the files.
        """
        from repro.data import HostDisks, ParSSimDataset, StorageMap
        from repro.viz.profile import DatasetProfile

        with self._assets_lock:
            assets = self._assets.get(scene.name)
            if assets is None:
                dataset = ParSSimDataset(
                    scene.shape, timesteps=scene.timesteps,
                    species=scene.species, seed=scene.seed,
                )
                directory = tempfile.TemporaryDirectory(prefix="repro-serve-")
                try:
                    profile, store = DatasetProfile.measured_to_store(
                        scene.name, dataset, nchunks=scene.nchunks,
                        nfiles=scene.nfiles, isovalue=scene.isovalue,
                        directory=directory.name,
                    )
                except BaseException:
                    directory.cleanup()
                    raise
                storage = StorageMap.balanced(
                    profile.files, [HostDisks("host0")]
                )
                self._store_dirs[scene.name] = directory
                assets = self._assets[scene.name] = (store, profile, storage)
        return assets

    def _build_pool(self, query: Query) -> WarmPool:
        from repro.viz import IsosurfaceApp

        config = query.config
        store, profile, storage = self._scene_assets(query.scene)
        app = IsosurfaceApp(
            profile,
            storage,
            width=query.width,
            height=query.height,
            algorithm=query.algorithm,
            dataset=store,
            isovalue=query.scene.isovalue,
            merge_copies=query.merge_copies,
        )
        return WarmPool(
            app.graph(config),
            app.placement(config, copies_per_host=self.copies),
            policy=self.policy,
            policy_overrides=app.policy_overrides(config),
            max_inflight=self.max_inflight,
        )

    # -- cache plumbing ------------------------------------------------------
    def _certified(self, scene: SceneSpec) -> "CacheBinding | None":
        """The cache bound to the Extract stage, or None (off or refused).

        What the tiers memoise is what the Extract *stage definition*
        computes, whichever node of a configuration carries it, so the
        certifier is asked about that definition where it is a node of its
        own — ``E`` of ``R-E-Ra-M`` — once per service, at its first query
        (the stage's static metadata, hence the binding's signature, is
        the same for every scene and pipeline shape).
        """
        if (
            self._cache is None
            or self._binding is not None
            or self._cache_refusal is not None
        ):
            return self._binding
        from repro.viz import IsosurfaceApp

        store, profile, storage = self._scene_assets(scene)
        with self._assets_lock:
            if self._binding is None and self._cache_refusal is None:
                app = IsosurfaceApp(profile, storage, dataset=store)
                try:
                    self._binding = bind_cache(
                        app.graph("R-E-Ra-M"), ("E",), self._cache
                    )
                except AnalysisError as exc:
                    # Certify-before-memoise: Extract is not provably pure,
                    # so the service runs uncached (the E703/E706 findings
                    # are surfaced in responses and stats).
                    self._cache_refusal = "; ".join(
                        f"[{d.rule}] {d.message}" for d in exc.report.errors
                    )
        return self._binding

    def _extract_triangles(
        self, scene: SceneSpec, timestep: int, isovalue: float,
        needed: "frozenset[int]",
    ) -> "dict[int, np.ndarray]":
        """Per-chunk marching cubes, exactly as the pipeline computes it.

        Same chunk partition (the profile's), same store files, same
        ``extract_triangles`` kernel and the same world origin per chunk
        — so injected triangles are bit-identical to what the Read →
        Extract stages would have produced for this unit of work.  A
        chunk Read would skip (not in ``needed``, the query's
        :func:`~repro.viz.filters.chunks_needed`) gets the empty array the
        kernel would return, unread, and a file with no needed chunk is
        never opened.  The store is read through a handle of this call's
        own, let go of after every file: one file mapped at a time, none kept.
        """
        from repro.data import DeclusteredStore
        from repro.viz.filters import _chunk_world_origin
        from repro.viz.marching_cubes import extract_triangles

        store, profile, _storage = self._scene_assets(scene)
        out: dict[int, np.ndarray] = {}
        with closing(DeclusteredStore.open(store.directory)) as handle:
            for data_file in profile.files:
                for chunk in data_file.chunks:
                    if chunk.chunk_id not in needed:
                        out[chunk.chunk_id] = np.empty((0, 3, 3), np.float32)
                        continue
                    out[chunk.chunk_id] = extract_triangles(
                        handle.chunk_field(chunk, timestep, 0), isovalue,
                        origin=_chunk_world_origin(chunk),
                    )
                handle.close()
        return out

    def _cache_block(self, events: _Events) -> "dict[str, Any]":
        block: dict[str, Any] = {
            "mode": "shared" if self._cache is not None else "off"
        }
        for tier, outcome, _nbytes in events:
            block[tier] = outcome
        block["bytes_saved"] = sum(
            nbytes for _tier, outcome, nbytes in events if outcome == "hit"
        )
        if self._cache_refusal is not None:
            block["mode"] = "refused"
            block["error"] = self._cache_refusal
        return block

    @staticmethod
    def _record_cache_events(
        tracer: Any, events: _Events, elapsed: float
    ) -> None:
        if tracer is None:
            return
        if not tracer.clock:
            tracer.clock = "wall"
        for tier, outcome, nbytes in events:
            tracer.record(
                elapsed, "cache", f"cache_{outcome}",
                f"tier={tier} nbytes={nbytes}",
            )

    # -- queries -------------------------------------------------------------
    def _parse(self, request: "dict[str, Any]") -> Query:
        """Validate one request into a :class:`Query` (service defaults applied)."""
        name = str(request.get("dataset", self.default_scene))
        scene = self.scenes.get(name)
        if scene is None:
            raise ConfigurationError(
                f"unknown dataset {name!r}; have {sorted(self.scenes)}"
            )
        config = str(request.get("config", self.config))
        if config not in CONFIGURATIONS:
            raise ConfigurationError(
                f"config must be one of {CONFIGURATIONS}, got {config!r}"
            )
        width = _coerce_int(
            request.get("width", self.width), "width", minimum=1, maximum=16384
        )
        height = _coerce_int(
            request.get("height", self.height), "height",
            minimum=1, maximum=16384,
        )
        isovalue = _coerce_float(
            request.get("isovalue", scene.isovalue), "isovalue"
        )
        timestep = _coerce_int(request.get("timestep", 0), "timestep")
        if not 0 <= timestep < scene.timesteps:
            raise ConfigurationError(
                f"timestep {timestep} out of range for {scene.name!r} "
                f"(has {scene.timesteps})"
            )
        algorithm = str(request.get("algorithm", self.algorithm))
        check_algorithm(algorithm)
        # one row band per tile-merge copy: TileMap.rows' limit
        merge_copies = _coerce_int(
            request.get("merge_copies", self.merge_copies), "merge_copies",
            minimum=1, maximum=height,
        )
        view = request.get("view")
        if view is not None and not isinstance(view, dict):
            raise ConfigurationError(
                f"view must be an object with azimuth/elevation, "
                f"got {view!r}"
            )
        orbit = None
        if view:
            orbit = (
                _coerce_float(view.get("azimuth", 30.0), "view.azimuth"),
                _coerce_float(view.get("elevation", 25.0), "view.elevation"),
            )
        return Query(
            scene, config, algorithm, width, height, isovalue, timestep,
            merge_copies, orbit,
        )

    def _pool_key(self, query: Query) -> "tuple[Any, ...]":
        """What a warm pool is built for: the query fields baked into its
        filter instances and process topology (``merge_copies`` is a
        different fan-out, so its own pipeline rather than a rebuild).

        Every query field in it also enters the frame key
        (:func:`cache_keys`); ``policy`` and ``copies`` are the service's.
        """
        return (query.scene.name, query.config, query.algorithm, query.width,
                query.height, self.policy, self.copies, query.merge_copies)

    def render(self, request: "dict[str, Any]") -> "dict[str, Any]":
        """Execute one query; returns the JSON-serialisable response dict.

        Raises :class:`~repro.errors.ReproError` on invalid requests or
        pipeline failures — the server wraps those into error responses.
        One path for every configuration: parse → keys → tile probe →
        camera → pool → triangle probe or front-end extraction → run → put
        → respond, so a repeat query touches one tile entry and nothing
        else, and an invalid one nothing at all.
        """
        from repro.core.tracing import Tracer
        from repro.viz.camera import Camera
        from repro.viz.filters import chunks_needed

        t0 = time.perf_counter()
        query = self._parse(request)
        tracer = Tracer() if request.get("trace") else None
        events: _Events = []

        binding = self._certified(query.scene)
        if binding is not None:
            triangle_key, frame_key = cache_keys(binding.signature, query)
            frame = binding.cache.get("tiles", frame_key)
            if frame is not None:
                # Answered without a pool: also after the pool was evicted.
                events.append(("tiles", "hit", frame.nbytes))
                run = {
                    "warm": True, "pool_cycle": None, "makespan_s": 0.0,
                    "active_pixels": frame.active_pixels,
                    "buffers_merged": frame.buffers_merged,
                    "acks": 0, "streams": {}, "chunks": None,
                }
                return self._respond(
                    query, "tile_hit", run, frame.image, events, tracer, t0
                )
            events.append(("tiles", "miss", 0))

        # Built before the pool is fetched: a pool forked by a process that
        # has already made a Camera serves about 5 % faster (EXPERIMENTS,
        # ISSUE 15; the cause is open — ROADMAP 9a).
        uow: dict[str, Any] = {"isovalue": query.isovalue, "timestep": query.timestep}
        if query.orbit is not None:
            uow["camera"] = Camera.orbit(
                query.scene.shape,
                azimuth_deg=query.orbit[0],
                elevation_deg=query.orbit[1],
                width=query.width,
                height=query.height,
            )
        pool, created = self.pools.get(
            self._pool_key(query), lambda: self._build_pool(query)
        )

        # Read's rule, asked once per run: len(needed) is the R->E buffer
        # count, unless triangles were injected (Read then touched no storage)
        store, profile, _storage = self._scene_assets(query.scene)
        needed = chunks_needed(store, profile.chunks, query.timestep, query.isovalue)
        outcome = "cold"
        if binding is not None:
            tri = binding.cache.get("triangles", triangle_key)
            if tri is None:
                # Triangle-tier miss: extract once, serve-side, and let
                # every copy of this query (and every later one) inject.
                events.append(("triangles", "miss", 0))
                tri = make_triangle_set(
                    self._extract_triangles(
                        query.scene, query.timestep, query.isovalue, needed
                    )
                )
                binding.cache.put("triangles", triangle_key, tri, tri.nbytes)
            else:
                events.append(("triangles", "hit", tri.nbytes))
                outcome = "triangle_hit"
            uow["triangles"] = dict(tri.triangles)

        try:
            metrics = pool.submit(uow, tracer=tracer).result()
        except EngineError:
            self.count_failure()
            raise
        result = metrics.result
        if binding is not None:
            frame = CachedFrame(
                result.image, result.active_pixels, result.buffers_merged
            )
            binding.cache.put("tiles", frame_key, frame, frame.nbytes)
        run = {
            "warm": not created,
            "pool_cycle": pool.cycles_completed,
            "makespan_s": round(metrics.makespan, 6),
            "active_pixels": result.active_pixels,
            "buffers_merged": result.buffers_merged,
            "acks": metrics.ack_messages,
            "streams": {
                name: [stats.buffers, stats.bytes]
                for name, stats in sorted(metrics.streams.items())
            },
            "chunks": [len(needed), len(profile.chunks)],
        }
        return self._respond(
            query, outcome, run, result.image, events, tracer, t0
        )

    def _respond(
        self,
        query: Query,
        outcome: str,
        run: "dict[str, Any]",
        image: np.ndarray,
        events: _Events,
        tracer: Any,
        t0: float,
    ) -> "dict[str, Any]":
        """Count one served query and shape its response (frame last)."""
        latency = time.perf_counter() - t0
        self._record_cache_events(tracer, events, latency)
        with self._count_lock:
            self._served[outcome] += 1
            if run["chunks"] is not None:
                self._chunks_needed += run["chunks"][0]
                self._chunks_total += run["chunks"][1]
        response: dict[str, Any] = {
            "ok": True,
            "dataset": query.scene.name,
            "config": query.config,
            "algorithm": query.algorithm,
            "width": query.width,
            "height": query.height,
            "isovalue": query.isovalue,
            "timestep": query.timestep,
            "merge_copies": query.merge_copies,
            **run,
            "cached": outcome == "tile_hit",
            "latency_s": round(latency, 6),
            "cache": self._cache_block(events),
        }
        if query.orbit is not None:
            response["view"] = {
                "azimuth": query.orbit[0], "elevation": query.orbit[1]
            }
        if tracer is not None:
            response["trace"] = {
                "events": len(tracer.events),
                "queue_samples": len(tracer.queue_samples),
                "dropped": tracer.dropped,
            }
        response["frame_b64"] = base64.b64encode(ppm_bytes(image)).decode()
        return response

    def cache_stats(self) -> "dict[str, Any]":
        """Service-level cache facts (also embedded in :meth:`stats`)."""
        out: dict[str, Any] = {
            "enabled": self._cache is not None,
            "cache_mb": self.cache_mb,
        }
        if self._binding is not None:
            out["members"] = list(self._binding.members)
            out["signature"] = self._binding.signature
        if self._cache_refusal is not None:
            out["refused"] = self._cache_refusal
        if self._cache is not None:
            out["shared"] = self._cache.stats()
        return out

    def stats(self) -> "dict[str, Any]":
        with self._count_lock:
            served, failed = dict(self._served), self.queries_failed
            chunks = self._chunks_needed, self._chunks_total
        stores = {}
        with self._assets_lock:  # close() removes the files under it
            for name in sorted(self._assets):
                directory = self._assets[name][0].directory
                files = list(directory.glob("*.bin"))
                stores[name] = {
                    "path": str(directory),
                    "bytes": sum(f.stat().st_size for f in files),
                    "files": len(files),
                }
        return {
            "scenes": sorted(self.scenes),
            "stores": stores,
            "config": self.config,
            "algorithm": self.algorithm,
            "merge_copies": self.merge_copies,
            "queries_served": sum(served.values()),
            "served_by": served,
            "queries_failed": failed,
            "chunks_needed": chunks[0],
            "chunks_total": chunks[1],
            "cache": self.cache_stats(),
            "pools": self.pools.stats(),
        }

    def count_failure(self) -> None:
        """Count a query whose render failed (shows as ``queries_failed``)."""
        with self._count_lock:
            self.queries_failed += 1

    def close(self) -> None:
        """Retire the pools, then remove every scene's store."""
        self.pools.close_all()
        with self._assets_lock:
            self._assets.clear()
            while self._store_dirs:
                self._store_dirs.popitem()[1].cleanup()


# -- the asyncio frontend ----------------------------------------------------
def response_line(response: "dict[str, Any]") -> bytes:
    """One response as one newline-terminated JSON line.

    ``json.dumps`` scans every string for characters to escape, and a
    frame is a megabyte of base64, whose alphabet has none: the rest of
    the response is encoded and the frame spliced in as its last member —
    the same JSON value, without the scan.
    """
    frame = response.get("frame_b64")
    if not isinstance(frame, str):
        return json.dumps(response).encode() + b"\n"
    head = {k: v for k, v in response.items() if k != "frame_b64"}
    return b'%s, "frame_b64": "%s"}\n' % (
        json.dumps(head).encode()[:-1], frame.encode("ascii")
    )


async def _serve(
    service: QueryService,
    host: str,
    port: int,
    admission_limit: int,
    ready: "Callable[[int], None] | None",
) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    inflight = 0  # touched only on the event loop: no lock needed

    async def handle(reader, writer):
        try:
            await _handle_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass  # client gone or server shutting down mid-read
        finally:
            # Pool workers forked while this connection was open hold a copy
            # of its socket, so close() alone sends no FIN and a client
            # reading to EOF would wait forever: half-close first.  A second
            # EOF (the over-limit path sent one) is a no-op; a peer already
            # gone makes the shutdown raise.
            if writer.can_write_eof() and not writer.is_closing():
                try:
                    writer.write_eof()
                except OSError:
                    pass
            writer.close()

    async def _handle_connection(reader, writer):
        nonlocal inflight

        async def reply(response):
            writer.write(response_line(response))
            await writer.drain()

        async def discard_input():
            while await reader.read(1 << 16):
                pass

        while not stop.is_set():
            try:
                line = await reader.readline()
            except ValueError as exc:
                # A line over the stream limit (64 KiB): the reader has
                # dropped part of it, so the connection cannot resync.
                await reply({"ok": False, "error": f"bad request: {exc}"})
                # Closing with input unread would reset the connection, and
                # the reset can overtake the reply: half-close instead and
                # discard what the client is still sending, for a bounded time.
                writer.write_eof()
                try:
                    await asyncio.wait_for(discard_input(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
                break
            if not line:
                break
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                response = {"ok": False, "error": f"bad request: {exc}"}
            else:
                cmd = request.get("cmd", "query")
                if cmd == "ping":
                    response = {"ok": True, "pong": True}
                elif cmd == "stats":
                    response = {"ok": True, "stats": service.stats()}
                elif cmd == "shutdown":
                    response = {"ok": True, "bye": True}
                    stop.set()
                elif cmd == "query":
                    if inflight >= admission_limit:
                        response = {
                            "ok": False,
                            "rejected": True,
                            "error": (
                                f"server busy: {inflight} queries in flight "
                                f"(admission limit {admission_limit})"
                            ),
                        }
                    else:
                        inflight += 1
                        try:
                            response = await loop.run_in_executor(
                                None, service.render, request
                            )
                        except ReproError as exc:
                            response = {"ok": False, "error": str(exc)}
                        except Exception as exc:
                            # A bug, not a bad request: this client gets an
                            # answer and the server keeps serving the others.
                            traceback.print_exc()
                            service.count_failure()
                            response = {
                                "ok": False,
                                "error": f"internal error: {type(exc).__name__}: {exc}",
                            }
                        finally:
                            inflight -= 1
                else:
                    response = {"ok": False, "error": f"unknown cmd {cmd!r}"}
            await reply(response)

    server = await asyncio.start_server(handle, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    print(
        f"repro serve: listening on {host}:{bound_port} "
        f"(scenes: {', '.join(sorted(service.scenes))})",
        flush=True,
    )
    async with server:
        await stop.wait()


def run_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8642,
    admission_limit: int = 8,
    ready: "Callable[[int], None] | None" = None,
) -> None:
    """Run the service until a ``shutdown`` command arrives.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) receives the
    bound port once the server is accepting — used by tests and scripted
    clients to avoid races.
    """
    try:
        asyncio.run(_serve(service, host, port, admission_limit, ready))
    finally:
        service.close()
