"""``repro serve``: a long-lived isosurface query service on warm pools.

The paper's pipelines are meant to serve interactive exploration — "the
client specifies a region of interest, an isovalue and a viewing screen" —
but the batch engines cold-spawn every process per run.  This module turns
the real pipeline into a query service in the paper's client/server
shape: a thin asyncio frontend accepts JSON queries over TCP, multiplexes
them onto :class:`~repro.engines.pool.WarmPool` pipelines kept warm
between queries, and returns rendered frames.

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
Repetitive traffic is served through the :mod:`repro.cache` tiers.  The
cache attaches per pool to the standalone extract stage and only when
:func:`repro.analysis.effects.certify_memoisable` passes — with the
shipped configurations that is exactly ``R-E-Ra-M``; the fused
configurations are *refused* (E703/E706, surfaced in the response's
``cache`` block) and run uncached.  On a triangle-tier hit the cached
per-chunk triangles ride ``uow["triangles"]`` and the Read/Extract
stages skip storage and marching cubes; on a full tile-set hit the frame
is reconstructed from cached tiles without running the pipeline at all.
Failed metadata lookups (unknown dataset, out-of-range timestep) are
answered from the negative tier.  ``cache_scope`` selects one shared
cache for every pool (``"shared"``, the default — popular content is
shared across image sizes and merge fan-outs) or a private cache per
pool (``"pool"``).
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cache import (
    CachedTile,
    ResultCache,
    TriangleSet,
    content_key,
    make_triangle_set,
)
from repro.core.tiles import Tile, TileMap
from repro.engines.pool import PoolManager, WarmPool
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    EngineError,
    ReproError,
)

__all__ = ["QueryService", "SceneSpec", "ppm_bytes", "run_server"]

CONFIGURATIONS = ("R-E-Ra-M", "RE-Ra-M", "R-ERa-M", "RERa-M")

#: The extract-carrying stage per configuration — the subgraph a result
#: cache tries to attach to.  Only the standalone ``E`` stage certifies
#: (pure); the fused stages are IO/stateful and are refused (E703/E706).
_CACHE_MEMBERS = {
    "R-E-Ra-M": ("E",),
    "RE-Ra-M": ("RE",),
    "R-ERa-M": ("ERa",),
    "RERa-M": ("RERa",),
}


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

    Bare ``int("banana")`` / ``int(None)`` raise ``ValueError`` /
    ``TypeError``, which used to escape ``render()`` and kill the
    connection without an error response; coercion failures and
    out-of-range values are now uniform configuration errors.
    """
    try:
        out = int(value)
    except (TypeError, ValueError):
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


def _frame_tiles(width: int, height: int, merge_copies: int) -> "list[Tile]":
    """The cached-frame partition: the PR 5 row bands, or one full tile."""
    if merge_copies > 1:
        return TileMap.rows(width, height, merge_copies, merge_copies).tiles
    return [Tile(0, 0, 0, width, height, 0)]


@dataclass(frozen=True)
class SceneSpec:
    """One servable dataset: the quickstart scene's knobs, named.

    The service generates the ParSSim dataset in memory at first use and
    declusters it over one host — the serving testbed is a single machine,
    where transparent copies (one process each) supply the parallelism.
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
        cache_scope: str = "shared",
    ):
        if config not in CONFIGURATIONS:
            raise ConfigurationError(
                f"config must be one of {CONFIGURATIONS}, got {config!r}"
            )
        if merge_copies < 1:
            raise ConfigurationError(
                f"merge_copies must be >= 1, got {merge_copies}"
            )
        if cache_mb < 0:
            raise ConfigurationError(
                f"cache_mb must be >= 0, got {cache_mb}"
            )
        if cache_scope not in ("shared", "pool"):
            raise ConfigurationError(
                f"cache_scope must be 'shared' or 'pool', got {cache_scope!r}"
            )
        scenes = scenes or [SceneSpec("default")]
        self.scenes = {scene.name: scene for scene in scenes}
        self.default_scene = scenes[0].name
        self.config = config
        self.algorithm = algorithm
        self.width = width
        self.height = height
        self.policy = policy
        self.copies = copies
        self.merge_copies = merge_copies
        self.max_inflight = max_inflight
        self.pools = PoolManager(
            max_pools=max_pools, idle_timeout=pool_idle_timeout
        )
        self.cache_mb = float(cache_mb)
        self.cache_scope = cache_scope
        self._shared_cache: "ResultCache | None" = None
        self._negative_cache: "ResultCache | None" = None
        if self.cache_mb > 0:
            if cache_scope == "shared":
                self._shared_cache = ResultCache(
                    int(self.cache_mb * 2**20), name="serve-shared"
                )
                self._negative_cache = self._shared_cache
            else:
                # Per-pool caches hold pipeline results; negative lookups
                # precede pool selection, so they get a small service-wide
                # cache of their own.
                self._negative_cache = ResultCache(
                    256 * 1024, name="serve-negative"
                )
        #: pool key -> (cache, subgraph signature) once a certified
        #: binding exists; lets full tile-set hits skip the pool entirely.
        self._cache_info: "dict[Any, tuple[ResultCache, str]]" = {}
        #: configuration -> E703/E706 refusal text (uncached fallback)
        self._cache_refusals: "dict[str, str]" = {}
        self._assets: "dict[str, tuple[Any, Any, Any]]" = {}
        self._assets_lock = threading.Lock()
        self.queries_served = 0
        self.queries_failed = 0
        self._count_lock = threading.Lock()

    # -- pipeline construction ----------------------------------------------
    def _scene_assets(self, scene: SceneSpec) -> "tuple[Any, Any, Any]":
        """(dataset, profile, storage) for a scene, built once and reused."""
        from repro.data import HostDisks, ParSSimDataset, StorageMap
        from repro.viz.profile import DatasetProfile

        with self._assets_lock:
            assets = self._assets.get(scene.name)
            if assets is None:
                dataset = ParSSimDataset(
                    scene.shape, timesteps=scene.timesteps,
                    species=scene.species, seed=scene.seed,
                )
                profile = DatasetProfile.measured(
                    scene.name, dataset, nchunks=scene.nchunks,
                    nfiles=scene.nfiles, isovalue=scene.isovalue,
                )
                storage = StorageMap.balanced(
                    profile.files, [HostDisks("host0")]
                )
                assets = (dataset, profile, storage)
                self._assets[scene.name] = assets
        return assets

    def _pool_cache(self) -> "ResultCache | None":
        if self.cache_mb <= 0:
            return None
        if self.cache_scope == "shared":
            return self._shared_cache
        return ResultCache(int(self.cache_mb * 2**20), name="serve-pool")

    def _build_pool(
        self, scene: SceneSpec, config: str, algorithm: str,
        width: int, height: int, merge_copies: int,
    ) -> WarmPool:
        from repro.viz import IsosurfaceApp

        dataset, profile, storage = self._scene_assets(scene)
        app = IsosurfaceApp(
            profile,
            storage,
            width=width,
            height=height,
            algorithm=algorithm,
            dataset=dataset,
            isovalue=scene.isovalue,
            merge_copies=merge_copies,
        )
        graph = app.graph(config)
        placement = app.placement(config, copies_per_host=self.copies)
        overrides = app.policy_overrides(config)
        cache = self._pool_cache()
        if cache is not None:
            try:
                return WarmPool(
                    graph,
                    placement,
                    policy=self.policy,
                    policy_overrides=overrides,
                    max_inflight=self.max_inflight,
                    cache=cache,
                    cache_members=_CACHE_MEMBERS[config],
                )
            except AnalysisError as exc:
                # Certify-before-memoise: the subgraph is not provably
                # pure, so this configuration runs uncached (the E703/E706
                # findings are surfaced in responses and stats).
                report = getattr(exc, "report", None)
                if report is not None and report.errors:
                    self._cache_refusals[config] = "; ".join(
                        f"[{d.rule}] {d.message}" for d in report.errors
                    )
                else:
                    self._cache_refusals[config] = str(exc)
        return WarmPool(
            graph,
            placement,
            policy=self.policy,
            policy_overrides=overrides,
            max_inflight=self.max_inflight,
        )

    # -- cache plumbing ------------------------------------------------------
    def _resolve_scene(
        self, name: str, events: "list[tuple[str, str, int]]"
    ) -> SceneSpec:
        scene = self.scenes.get(name)
        if scene is not None:
            return scene
        negative = self._negative_cache
        nkey = content_key("negative", "dataset", name)
        if negative is not None:
            cached = negative.get("negative", nkey)
            if cached is not None:
                events.append(("negative", "hit", len(cached)))
                raise ConfigurationError(cached)
        message = f"unknown dataset {name!r}; have {sorted(self.scenes)}"
        if negative is not None:
            negative.put("negative", nkey, message, len(message))
            events.append(("negative", "miss", 0))
        raise ConfigurationError(message)

    def _check_timestep(
        self,
        scene: SceneSpec,
        timestep: int,
        events: "list[tuple[str, str, int]]",
    ) -> None:
        if 0 <= timestep < scene.timesteps:
            return
        negative = self._negative_cache
        nkey = content_key("negative", "timestep", scene.name, timestep)
        if negative is not None:
            cached = negative.get("negative", nkey)
            if cached is not None:
                events.append(("negative", "hit", len(cached)))
                raise ConfigurationError(cached)
        message = (
            f"timestep {timestep} out of range for {scene.name!r} "
            f"(has {scene.timesteps})"
        )
        if negative is not None:
            negative.put("negative", nkey, message, len(message))
            events.append(("negative", "miss", 0))
        raise ConfigurationError(message)

    def _extract_triangles(
        self, scene: SceneSpec, timestep: int, isovalue: float
    ) -> "dict[int, np.ndarray]":
        """Per-chunk marching cubes, exactly as the pipeline computes it.

        Same chunk partition (the profile's), same generator, same
        ``extract_triangles`` kernel and the same world origin per chunk
        — so injected triangles are bit-identical to what the Read →
        Extract stages would have produced for this unit of work.
        """
        from repro.viz.marching_cubes import extract_triangles

        dataset, profile, _storage = self._scene_assets(scene)
        out: dict[int, np.ndarray] = {}
        for data_file in profile.files:
            for chunk in data_file.chunks:
                scalars = dataset.chunk_field(chunk, timestep, 0)
                origin = (
                    float(chunk.start[2]),
                    float(chunk.start[1]),
                    float(chunk.start[0]),
                )
                out[chunk.chunk_id] = extract_triangles(
                    scalars, isovalue, origin=origin
                )
        return out

    def _try_cached_frame(
        self,
        cache: ResultCache,
        frame_key: str,
        width: int,
        height: int,
        merge_copies: int,
        events: "list[tuple[str, str, int]]",
    ) -> "tuple[np.ndarray, CachedTile] | None":
        """Rebuild the frame from cached tiles, or None on any gap."""
        tiles = _frame_tiles(width, height, merge_copies)
        keys = [content_key(frame_key, tile.index) for tile in tiles]
        missing = [k for k in keys if not cache.peek("tiles", k)]
        if missing:
            cache.get("tiles", missing[0])  # register exactly one miss
            events.append(("tiles", "miss", 0))
            return None
        records = [cache.get("tiles", k) for k in keys]
        if any(record is None for record in records):  # raced an eviction
            events.append(("tiles", "miss", 0))
            return None
        image = np.zeros((height, width, 3), np.uint8)
        for record in records:
            h, w = record.image.shape[:2]
            image[record.y0 : record.y0 + h, record.x0 : record.x0 + w] = (
                record.image
            )
        events.append(
            ("tiles", "hit", sum(record.nbytes for record in records))
        )
        return image, records[0]

    def _store_tiles(
        self,
        cache: ResultCache,
        frame_key: str,
        result: Any,
        width: int,
        height: int,
        merge_copies: int,
    ) -> None:
        for tile in _frame_tiles(width, height, merge_copies):
            sub = np.ascontiguousarray(
                result.image[tile.y0 : tile.y1, tile.x0 : tile.x1]
            )
            record = CachedTile(
                tile.index, tile.x0, tile.y0, sub,
                result.active_pixels, result.buffers_merged,
            )
            cache.put(
                "tiles", content_key(frame_key, tile.index), record,
                record.nbytes,
            )

    def _cache_mode(self, config: str) -> str:
        if self.cache_mb <= 0:
            return "off"
        if config in self._cache_refusals:
            return "refused"
        return self.cache_scope

    def _cache_block(
        self, config: str, events: "list[tuple[str, str, int]]"
    ) -> "dict[str, Any]":
        block: dict[str, Any] = {"mode": self._cache_mode(config)}
        for tier, outcome, _nbytes in events:
            block[tier] = outcome
        block["bytes_saved"] = sum(
            nbytes for _tier, outcome, nbytes in events if outcome == "hit"
        )
        if block["mode"] == "refused":
            block["error"] = self._cache_refusals[config]
        return block

    @staticmethod
    def _record_cache_events(
        tracer: Any,
        events: "list[tuple[str, str, int]]",
        elapsed: float,
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
    def render(self, request: "dict[str, Any]") -> "dict[str, Any]":
        """Execute one query; returns the JSON-serialisable response dict.

        Raises :class:`~repro.errors.ReproError` on invalid requests or
        pipeline failures — the server wraps those into error responses.
        """
        from repro.core.tracing import Tracer
        from repro.viz.camera import Camera

        t0 = time.perf_counter()
        events: list[tuple[str, str, int]] = []
        scene_name = str(request.get("dataset", self.default_scene))
        scene = self._resolve_scene(scene_name, events)
        config = str(request.get("config", self.config))
        if config not in CONFIGURATIONS:
            raise ConfigurationError(
                f"config must be one of {CONFIGURATIONS}, got {config!r}"
            )
        algorithm = str(request.get("algorithm", self.algorithm))
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
        self._check_timestep(scene, timestep, events)
        merge_copies = _coerce_int(
            request.get("merge_copies", self.merge_copies), "merge_copies",
            minimum=1,
        )
        view = request.get("view")
        if view is not None and not isinstance(view, dict):
            raise ConfigurationError(
                f"view must be an object with azimuth/elevation, "
                f"got {view!r}"
            )
        uow: dict[str, Any] = {"isovalue": isovalue, "timestep": timestep}
        azimuth = elevation = None
        if view:
            azimuth = _coerce_float(view.get("azimuth", 30.0), "view.azimuth")
            elevation = _coerce_float(
                view.get("elevation", 25.0), "view.elevation"
            )
            uow["camera"] = Camera.orbit(
                scene.shape,
                azimuth_deg=azimuth,
                elevation_deg=elevation,
                width=width,
                height=height,
            )
        tracer = Tracer() if request.get("trace") else None

        # merge_copies is pool-keyed like any other placement parameter:
        # a different fan-out is a different process topology, so it gets
        # its own warm pipeline rather than rebuilding an existing one.
        key = (scene_name, config, algorithm, width, height,
               self.policy, self.copies, merge_copies)

        # Content-addressed key material.  The scene facts fully determine
        # the generated dataset; (nchunks, nfiles) fully determine the
        # declustered chunk partition the profile derives from them.
        dataset_digest = content_key(
            "scene", scene.name, scene.grid, scene.timesteps,
            scene.species, scene.seed,
        )
        chunk_digest = content_key("chunks", scene.nchunks, scene.nfiles)
        view_tag = (
            ("orbit", azimuth, elevation) if view else ("default-camera",)
        )

        def frame_key_for(tri: TriangleSet, signature: str) -> str:
            return content_key(
                "frame", signature, tri.digest, view_tag,
                width, height, algorithm, config, merge_copies,
            )

        def triangle_key_for(signature: str) -> str:
            return content_key(
                "tri", signature, dataset_digest, chunk_digest,
                timestep, isovalue,
            )

        # -- fast path: a fully cached frame skips the pool outright
        cache: "ResultCache | None" = None
        signature: "str | None" = None
        tri: "TriangleSet | None" = None
        info = self._cache_info.get(key)
        if info is not None:
            cache, signature = info
            tri = cache.get("triangles", triangle_key_for(signature))
            if tri is not None:
                events.append(("triangles", "hit", tri.nbytes))
                cached = self._try_cached_frame(
                    cache, frame_key_for(tri, signature),
                    width, height, merge_copies, events,
                )
                if cached is not None:
                    image, meta = cached
                    return self._cached_response(
                        request, scene_name, config, algorithm, width,
                        height, isovalue, timestep, merge_copies, view,
                        azimuth, elevation, image, meta, events, tracer, t0,
                    )
            else:
                events.append(("triangles", "miss", 0))

        pool, created = self.pools.get(
            key,
            lambda: self._build_pool(
                scene, config, algorithm, width, height, merge_copies
            ),
        )
        if cache is None and pool.cache_binding is not None:
            cache = pool.cache_binding.cache
            signature = pool.cache_binding.signature
            self._cache_info[key] = (cache, signature)
            tri = cache.get("triangles", triangle_key_for(signature))
            events.append(
                ("triangles", "hit", tri.nbytes) if tri is not None
                else ("triangles", "miss", 0)
            )

        frame_key: "str | None" = None
        if cache is not None and signature is not None:
            if tri is None:
                # Triangle-tier miss: extract once, serve-side, and let
                # every copy of this query (and every later one) inject.
                tri = make_triangle_set(
                    self._extract_triangles(scene, timestep, isovalue)
                )
                cache.put(
                    "triangles", triangle_key_for(signature), tri, tri.nbytes
                )
            frame_key = frame_key_for(tri, signature)
            uow["triangles"] = dict(tri.triangles)

        try:
            metrics = pool.submit(uow, tracer=tracer).result()
        except EngineError:
            self.count_failure()
            raise
        result = metrics.result
        if cache is not None and frame_key is not None:
            self._store_tiles(
                cache, frame_key, result, width, height, merge_copies
            )
        metrics.cache_hits = sum(1 for _, o, _ in events if o == "hit")
        metrics.cache_misses = sum(1 for _, o, _ in events if o == "miss")
        metrics.cache_bytes_saved = sum(
            n for _, o, n in events if o == "hit"
        )
        latency = time.perf_counter() - t0
        self._record_cache_events(tracer, events, latency)
        with self._count_lock:
            self.queries_served += 1
        response: dict[str, Any] = {
            "ok": True,
            "dataset": scene_name,
            "config": config,
            "algorithm": algorithm,
            "width": width,
            "height": height,
            "isovalue": isovalue,
            "timestep": timestep,
            "merge_copies": merge_copies,
            "warm": not created,
            "cached": False,
            "pool_cycle": pool.cycles_completed,
            "latency_s": round(latency, 6),
            "makespan_s": round(metrics.makespan, 6),
            "active_pixels": result.active_pixels,
            "buffers_merged": result.buffers_merged,
            "acks": metrics.ack_messages,
            "cache": self._cache_block(config, events),
            "streams": {
                name: [stats.buffers, stats.bytes]
                for name, stats in sorted(metrics.streams.items())
            },
            "frame_b64": base64.b64encode(ppm_bytes(result.image)).decode(),
        }
        if view:
            response["view"] = {"azimuth": azimuth, "elevation": elevation}
        if tracer is not None:
            response["trace"] = {
                "events": len(tracer.events),
                "queue_samples": len(tracer.queue_samples),
                "dropped": tracer.dropped,
            }
        return response

    def _cached_response(
        self,
        request: "dict[str, Any]",
        scene_name: str,
        config: str,
        algorithm: str,
        width: int,
        height: int,
        isovalue: float,
        timestep: int,
        merge_copies: int,
        view: Any,
        azimuth: "float | None",
        elevation: "float | None",
        image: np.ndarray,
        meta: CachedTile,
        events: "list[tuple[str, str, int]]",
        tracer: Any,
        t0: float,
    ) -> "dict[str, Any]":
        """A query answered wholly from the tile tier (no pipeline run)."""
        latency = time.perf_counter() - t0
        self._record_cache_events(tracer, events, latency)
        with self._count_lock:
            self.queries_served += 1
        response: dict[str, Any] = {
            "ok": True,
            "dataset": scene_name,
            "config": config,
            "algorithm": algorithm,
            "width": width,
            "height": height,
            "isovalue": isovalue,
            "timestep": timestep,
            "merge_copies": merge_copies,
            "warm": True,
            "cached": True,
            "pool_cycle": None,
            "latency_s": round(latency, 6),
            "makespan_s": 0.0,
            "active_pixels": meta.active_pixels,
            "buffers_merged": meta.buffers_merged,
            "acks": 0,
            "cache": self._cache_block(config, events),
            "streams": {},
            "frame_b64": base64.b64encode(ppm_bytes(image)).decode(),
        }
        if view:
            response["view"] = {"azimuth": azimuth, "elevation": elevation}
        if tracer is not None:
            response["trace"] = {
                "events": len(tracer.events),
                "queue_samples": len(tracer.queue_samples),
                "dropped": tracer.dropped,
            }
        return response

    def cache_stats(self) -> "dict[str, Any]":
        """Service-level cache facts (also embedded in :meth:`stats`)."""
        out: dict[str, Any] = {
            "enabled": self.cache_mb > 0,
            "scope": self.cache_scope if self.cache_mb > 0 else None,
            "cache_mb": self.cache_mb,
            "refusals": dict(self._cache_refusals),
        }
        if self._shared_cache is not None:
            out["shared"] = self._shared_cache.stats()
        if (
            self._negative_cache is not None
            and self._negative_cache is not self._shared_cache
        ):
            out["negative"] = self._negative_cache.stats()
        return out

    def stats(self) -> "dict[str, Any]":
        with self._count_lock:
            served, failed = self.queries_served, self.queries_failed
        return {
            "scenes": sorted(self.scenes),
            "config": self.config,
            "algorithm": self.algorithm,
            "merge_copies": self.merge_copies,
            "queries_served": served,
            "queries_failed": failed,
            "cache": self.cache_stats(),
            "pools": self.pools.stats(),
        }

    def count_failure(self) -> None:
        """Count a query whose render failed (shows as ``queries_failed``)."""
        with self._count_lock:
            self.queries_failed += 1

    def close(self) -> None:
        self.pools.close_all()


# -- the asyncio frontend ----------------------------------------------------
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
            writer.close()

    async def _handle_connection(reader, writer):
        nonlocal inflight

        async def reply(response):
            writer.write(json.dumps(response).encode() + b"\n")
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
