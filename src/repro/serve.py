"""``repro serve``: a long-lived isosurface query service on warm pools.

The paper's pipelines are meant to serve interactive exploration — "the
client specifies a region of interest, an isovalue and a viewing screen" —
but the batch engines cold-spawn every process per run.  This module turns
the real pipeline into a query service in the paper's client/server
shape: a thin asyncio frontend accepts JSON queries over TCP, runs them
on a :class:`~repro.engines.pool.WarmPool` kept warm between queries, and
returns rendered frames.

Read path: a served scene is its layout
(:meth:`~repro.viz.profile.DatasetProfile.layout`: chunk grid and files,
no triangle census) and its store.  It is generated once, at its first
use, straight into a Hilbert-declustered
:class:`~repro.data.diskstore.DeclusteredStore` in a temporary directory
the service owns (removed by :meth:`QueryService.close`), and one
:class:`~repro.viz.IsosurfaceApp` over that store builds its pools.
Every query's Read copies stream memory-mapped chunks from those
files, and on one host the codec hands them to Extract by reference — a
file region descriptor, no copy (:mod:`repro.core.buffer`).  Only the
chunks the isosurface can cross are read: the store records each chunk's
value range, and Read skips a chunk whose range rules out a triangle at
the query's isovalue (:func:`repro.viz.filters.chunks_needed`); the
response's ``chunks`` is ``[needed, stored]`` for the query's timestep.

Protocol: newline-delimited JSON, one request per line, one response per
line (stdlib only — no HTTP).  Requests::

    {"cmd": "query", "isovalue": 0.4, "timestep": 1,
     "view": {"azimuth": 60, "elevation": 30}, "trace": false}
    {"cmd": "ping"} | {"cmd": "stats"} | {"cmd": "shutdown"}

``cmd`` defaults to ``"query"``, and a query names no other field (a
``view`` no other than its two, ``trace`` a boolean): any other is a bad
request that names it.  A query response carries the frame as a
base64 PPM (``frame_b64``), per-query latency, stream/ack totals and a
``warm`` flag (False when this query cold-built its pool).  A frame is
encoded once, when it is rendered, so a miss's ``latency_s`` includes the
encode and a tile hit's has none to include.  Admission is
bounded: beyond ``admission_limit`` concurrently running queries the server
answers ``{"ok": false, "rejected": true}`` immediately instead of queueing
without bound.  Every request line gets a response line: an invalid request
or a pipeline failure answers ``{"ok": false, "error": ...}``, so does an
unexpected exception inside ``render`` (counted in ``queries_failed``,
traceback on stderr), and so does a line over the 64 KiB stream limit —
after which that one connection is closed, as it cannot resynchronise.

Query → pipeline binding: the service runs one pipeline — configuration,
algorithm, image size, policy and copies are how it is deployed, baked
into filter instances at construction — and a scene has one warm pool,
built at the scene's first query and again once it is no longer usable.
The per-query knobs (isovalue, timestep, camera orbit) ride the unit of
work and are honoured by the viz filters via their ``ctx.uow`` overrides,
so successive queries reuse the same warm processes.  A response echoes
the pipeline's ``config``, ``algorithm``, ``width`` and ``height``.

Result caching (``cache_mb > 0``)
---------------------------------
Repeat queries are answered from the :mod:`repro.cache` tile tier: one
cache for the service, shared by every scene's pool.  What is certified is
the Extract stage definition, what is keyed is the request: the service
asks :func:`repro.analysis.effects.certify_memoisable` once, when it is
constructed, about that stage where it is a node of its own (``E`` of
``R-E-Ra-M``, through :func:`repro.cache.bind_cache`, on the first
scene's layout: no data is generated for it), and all four
configurations cache under that one certificate.  A refusal (E703/E706 —
reachable only by changing the Extract definition) is surfaced in every
response's ``cache`` block and the service runs uncached.  The key is a
function of the request alone (:func:`frame_key`): a repeat query is one
tile-tier lookup, answered without a pool, and one write — the tile holds
the encoded frame, which :func:`response_line` joins into the reply as it
is.  A miss runs the whole pipeline, Read and Extract in their copies, and
puts its frame.  An invalid request raises before any probe and never
touches the cache.
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
from concurrent.futures import Future
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.cache import (
    CacheBinding,
    CachedFrame,
    ResultCache,
    bind_cache,
    content_key,
)
from repro.configurations import CONFIGURATIONS, check_algorithm
from repro.core.policies import make_policy_factory
from repro.engines.pool import WarmPool
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    EngineError,
    ReproError,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.data import StorageMap
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

__all__ = [
    "Query", "QueryService", "SceneSpec", "frame_key", "ppm_bytes",
    "run_server",
]

#: What a query's cache probes did so far: ``(tier, "hit" | "miss", bytes)``.
_Events = list[tuple[str, str, int]]

#: The fields a query request and its ``view`` may name; the pipeline is
#: the service's.
_QUERY_FIELDS = ("cmd", "dataset", "isovalue", "timestep", "view", "trace")
_VIEW_FIELDS = ("azimuth", "elevation")


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
    the same configuration error.  A JSON boolean is not a number here,
    although Python's ``bool`` is an ``int``.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
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
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
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

    def __post_init__(self) -> None:
        # Checked here, cheaply, rather than by building the generator (a
        # fraction of a second at a large grid): a scene no query could
        # render is refused before a service is built around it.
        _coerce_int(self.grid, "grid", minimum=2)
        for name in ("species", "nchunks", "nfiles"):
            _coerce_int(getattr(self, name), name, minimum=1)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.grid, self.grid, self.grid)


def _layout(scene: SceneSpec) -> "tuple[DatasetProfile, StorageMap]":
    """A scene's chunk layout, and its files placed on the one host."""
    from repro.data import HostDisks, StorageMap
    from repro.viz.profile import DatasetProfile

    layout = DatasetProfile.layout(
        scene.name, scene.shape, scene.timesteps, scene.nchunks, scene.nfiles
    )
    return layout, StorageMap.balanced(layout.files, [HostDisks("host0")])


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
    orbit: "tuple[float, float] | None"  # (azimuth, elevation) in degrees


def frame_key(signature: str, query: Query) -> str:
    """The tile-tier key of a query under a certified subgraph.

    A function of the request alone, starting from the subgraph's
    ``signature``: every field of the query, the scene's facts included.
    Those facts fully determine the generated dataset and ``(nchunks,
    nfiles)`` its declustered chunk partition, so with a certified-pure
    Extract over a deterministic Read the key determines the frame.
    """
    return content_key("frame", signature, astuple(query))


class QueryService:
    """Render isosurface queries on one pipeline, one warm pool per scene.

    ``render`` is synchronous and thread-safe — the asyncio frontend calls
    it through an executor.  A scene's first query pays the cold build
    (store, fork, filter construction); later ones run warm, until the
    pool breaks and the next query builds it again.  With ``cache_mb > 0``
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
        max_inflight: int = 2,
        cache_mb: float = 0.0,
    ):
        if cache_mb < 0:
            raise ConfigurationError(
                f"cache_mb must be >= 0, got {cache_mb}"
            )
        scenes = scenes or [SceneSpec("default")]
        self.scenes = {scene.name: scene for scene in scenes}
        self.default_scene = scenes[0].name
        # Refused here, not at every query, nor only after a scene's store
        # was written: the pipeline, and each scene's default query.
        if config not in CONFIGURATIONS:
            raise ConfigurationError(
                f"config must be one of {CONFIGURATIONS}, got {config!r}"
            )
        check_algorithm(algorithm)
        self.config = config
        self.algorithm = algorithm
        self.width = _coerce_int(width, "width", minimum=1, maximum=16384)
        self.height = _coerce_int(height, "height", minimum=1, maximum=16384)
        for scene in scenes:
            self._parse({"dataset": scene.name})
        make_policy_factory(policy)
        self.policy = policy
        self.copies = _coerce_int(copies, "copies", minimum=1)
        self.max_inflight = _coerce_int(max_inflight, "max_inflight", minimum=1)
        #: scene name -> its warm pool, built at the scene's first query
        self._pools: "dict[str, WarmPool]" = {}
        #: scene name -> the build in progress, which its waiters share
        self._builds: "dict[str, Future[WarmPool]]" = {}
        self._pools_lock = threading.Lock()
        self.cache_mb = float(cache_mb)
        #: the one result cache, shared by every pool (None: caching off)
        self._cache: "ResultCache | None" = None
        #: the cache bound to the Extract stage definition (None: caching
        #: off, or refused)
        self._binding: "CacheBinding | None" = None
        #: the certifier's E703/E706 text when it refused: served uncached
        self._cache_refusal: "str | None" = None
        if self.cache_mb > 0:
            from repro.viz import IsosurfaceApp

            self._cache = ResultCache(
                int(self.cache_mb * 2**20), name="serve-shared"
            )
            # A frame is what the Extract *stage definition* feeds Raster,
            # whichever node of a configuration carries it: the certifier is
            # asked once about that definition where it is a node of its own
            # (``E`` of ``R-E-Ra-M``).  Its static metadata, hence the
            # binding's signature, is the same for every scene and pipeline
            # shape, so the first scene's layout stands for them all.
            try:
                self._binding = bind_cache(
                    IsosurfaceApp(*_layout(scenes[0])).graph("R-E-Ra-M"),
                    ("E",), self._cache,
                )
            except AnalysisError as exc:
                # Certify-before-memoise: Extract is not provably pure, so
                # the service runs uncached (the E703/E706 findings are
                # surfaced in responses and stats).
                self._cache_refusal = "; ".join(
                    f"[{d.rule}] {d.message}" for d in exc.report.errors
                )
        #: scene name -> its app over its store, made at first use
        self._apps: "dict[str, IsosurfaceApp]" = {}
        #: scene name -> the directory its store lives in; a directory is
        #: removed by close(), or with the service if it is never closed
        self._store_dirs: "dict[str, tempfile.TemporaryDirectory[str]]" = {}
        self._apps_lock = threading.Lock()
        #: served queries by how far they had to go: the tile tier or the
        #: whole pipeline
        self._served = {"tile_hit": 0, "cold": 0}
        #: chunks the served pipeline runs needed, of those their timesteps
        #: store (tile hits run no pipeline and count nothing)
        self._chunks_needed = self._chunks_total = 0
        self.queries_failed = 0
        self._count_lock = threading.Lock()

    # -- pipeline construction ----------------------------------------------
    def _scene_app(self, scene: SceneSpec) -> "IsosurfaceApp":
        """The scene's app: its layout, its store and the service's pipeline.

        Made once, at the scene's first use, which generates the scene
        straight into its declustered store; pools (also rebuilt ones) are
        built from it and read the files.  A scene already made is returned
        without the lock, so no query waits while another scene's store is
        written.
        """
        from repro.data import DeclusteredStore, ParSSimDataset
        from repro.viz import IsosurfaceApp

        app = self._apps.get(scene.name)
        if app is not None:
            return app
        with self._apps_lock:
            app = self._apps.get(scene.name)
            if app is None:
                layout, storage = _layout(scene)
                dataset = ParSSimDataset(
                    scene.shape, timesteps=scene.timesteps,
                    species=scene.species, seed=scene.seed,
                )
                directory = tempfile.TemporaryDirectory(prefix="repro-serve-")
                try:
                    store = DeclusteredStore.write(
                        dataset, layout, directory.name, species=[0]
                    )
                except BaseException:
                    directory.cleanup()
                    raise
                self._store_dirs[scene.name] = directory
                app = self._apps[scene.name] = IsosurfaceApp(
                    layout, storage, width=self.width, height=self.height,
                    algorithm=self.algorithm, dataset=store,
                    isovalue=scene.isovalue,
                )
        return app

    def _build_pool(self, scene: SceneSpec) -> WarmPool:
        app = self._scene_app(scene)
        return WarmPool(
            app.graph(self.config),
            app.placement(self.config, copies_per_host=self.copies),
            policy=self.policy,
            max_inflight=self.max_inflight,
        )

    def _pool(self, scene: SceneSpec) -> "tuple[WarmPool, bool]":
        """``(pool, built)``: the scene's warm pool, built if it has none.

        A query that finds the pool broken builds a new one; concurrent
        first queries share one build, and a build that raises fails each
        of them with its error (the next query tries again).  Builds run
        outside the lock, so no scene's query waits on another's.
        """
        with self._pools_lock:
            pool = self._pools.get(scene.name)
            if pool is not None and pool.usable:
                return pool, False
            broken = self._pools.pop(scene.name, None)
            build = self._builds.get(scene.name)
            builder = build is None
            if build is None:
                build = self._builds[scene.name] = Future()
        if broken is not None:
            # A broken pool's close can take LEAVE_BOUND: not on this query.
            threading.Thread(
                target=broken.close, daemon=True, name="serve-pool-close"
            ).start()
        if not builder:
            return build.result(), False
        try:
            pool = self._build_pool(scene)
        except BaseException as exc:
            with self._pools_lock:
                del self._builds[scene.name]
            build.set_exception(exc)
            raise
        with self._pools_lock:
            del self._builds[scene.name]
            self._pools[scene.name] = pool
        build.set_result(pool)
        return pool, True

    # -- cache plumbing ------------------------------------------------------
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
        unknown = [field for field in request if field not in _QUERY_FIELDS]
        if unknown:
            raise ConfigurationError(
                f"unknown request field {unknown[0]!r}: a query names only "
                f"{', '.join(_QUERY_FIELDS)}"
            )
        name = str(request.get("dataset", self.default_scene))
        scene = self.scenes.get(name)
        if scene is None:
            raise ConfigurationError(
                f"unknown dataset {name!r}; have {sorted(self.scenes)}"
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
        view = request.get("view")
        if view is not None and not isinstance(view, dict):
            raise ConfigurationError(
                f"view must be an object with azimuth/elevation, "
                f"got {view!r}"
            )
        unknown = [key for key in view or () if key not in _VIEW_FIELDS]
        if unknown:
            raise ConfigurationError(
                f"unknown view field {unknown[0]!r}: a view names only "
                f"{', '.join(_VIEW_FIELDS)}"
            )
        if not isinstance(trace := request.get("trace", False), bool):
            raise ConfigurationError(f"trace must be true or false, got {trace!r}")
        orbit = None
        if view:
            orbit = (
                _coerce_float(view.get("azimuth", 30.0), "view.azimuth"),
                _coerce_float(view.get("elevation", 25.0), "view.elevation"),
            )
        return Query(
            scene, self.config, self.algorithm, self.width, self.height,
            isovalue, timestep, orbit,
        )

    def render(self, request: "dict[str, Any]") -> "dict[str, Any]":
        """Execute one query; returns the JSON-serialisable response dict.

        Raises :class:`~repro.errors.ReproError` on invalid requests or
        pipeline failures — the server wraps those into error responses.
        One path for every configuration: parse → key → tile probe →
        pool → camera → run → put → respond, so a repeat query touches one
        tile entry and nothing else, and an invalid one nothing at all.
        """
        from repro.core.tracing import Tracer
        from repro.viz.camera import Camera
        from repro.viz.filters import chunks_needed

        t0 = time.perf_counter()
        query = self._parse(request)
        tracer = Tracer() if request.get("trace") else None
        events: _Events = []

        binding = self._binding
        if binding is not None:
            key = frame_key(binding.signature, query)
            frame = binding.cache.get("tiles", key)
            if frame is not None:
                # Answered without a pool: also while the scene's is broken.
                events.append(("tiles", "hit", frame.nbytes))
                run = {
                    "warm": True, "pool_cycle": None, "makespan_s": 0.0,
                    "active_pixels": frame.active_pixels,
                    "buffers_merged": frame.buffers_merged,
                    "acks": 0, "streams": {}, "chunks": None,
                }
                return self._respond(
                    query, "tile_hit", run, frame.frame_b64, events, tracer, t0
                )
            events.append(("tiles", "miss", 0))

        pool, created = self._pool(query.scene)
        uow: dict[str, Any] = {"isovalue": query.isovalue, "timestep": query.timestep}
        if query.orbit is not None:
            uow["camera"] = Camera.orbit(
                query.scene.shape,
                azimuth_deg=query.orbit[0],
                elevation_deg=query.orbit[1],
                width=query.width,
                height=query.height,
            )

        # Read's rule, asked once per run: len(needed) is the R->E buffer count
        app = self._scene_app(query.scene)
        chunks = app.profile.chunks
        needed = chunks_needed(app.dataset, chunks, query.timestep, query.isovalue)
        try:
            metrics = pool.submit(uow, tracer=tracer).result()
        except EngineError:
            self.count_failure()
            raise
        result = metrics.result
        # Encoded once: the tile entry and the response share the string.
        frame_b64 = base64.b64encode(ppm_bytes(result.image)).decode()
        if binding is not None:
            frame = CachedFrame(
                frame_b64, result.active_pixels, result.buffers_merged
            )
            binding.cache.put("tiles", key, frame, frame.nbytes)
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
            "chunks": [len(needed), len(chunks)],
        }
        return self._respond(query, "cold", run, frame_b64, events, tracer, t0)

    def _respond(
        self,
        query: Query,
        outcome: str,
        run: "dict[str, Any]",
        frame_b64: str,
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
        response["frame_b64"] = frame_b64
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
        with self._pools_lock:
            pools = sorted(self._pools.items())
        stores = {}
        with self._apps_lock:  # close() removes the files under it
            for name in sorted(self._apps):
                directory = self._apps[name].dataset.directory
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
            "queries_served": sum(served.values()),
            "served_by": served,
            "queries_failed": failed,
            "chunks_needed": chunks[0],
            "chunks_total": chunks[1],
            "cache": self.cache_stats(),
            "pools": {name: pool.stats() for name, pool in pools},
        }

    def count_failure(self) -> None:
        """Count a query whose render failed (shows as ``queries_failed``)."""
        with self._count_lock:
            self.queries_failed += 1

    def close(self) -> None:
        """Retire the pools, then remove every scene's store."""
        with self._pools_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()
        with self._apps_lock:
            self._apps.clear()
            while self._store_dirs:
                self._store_dirs.popitem()[1].cleanup()


# -- the asyncio frontend ----------------------------------------------------
def response_line(response: "dict[str, Any]") -> bytes:
    """One response as one newline-terminated JSON line.

    ``json.dumps`` scans every string for characters to escape, and a
    frame is a megabyte of base64, whose alphabet has none: the rest of
    the response is encoded and the frame joined in as its last member —
    the same JSON value, without the scan.
    """
    frame = response.get("frame_b64")
    if not isinstance(frame, str):
        return json.dumps(response).encode() + b"\n"
    head = {k: v for k, v in response.items() if k != "frame_b64"}
    return b"".join((
        json.dumps(head).encode()[:-1], b', "frame_b64": "',
        frame.encode("ascii"), b'"}\n',
    ))


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
    clients to avoid races.  An ``admission_limit`` below 1, which would
    reject every query, or a ``port`` outside ``0..65535`` raises
    :class:`ConfigurationError` before binding.
    """
    try:
        _coerce_int(admission_limit, "admission_limit", minimum=1)
        _coerce_int(port, "port", minimum=0, maximum=65535)
        # Freeing one 30 MiB buffer raises glibc's dynamic mmap threshold to
        # about 30 MiB (and its trim threshold to twice that), here and in
        # every pool worker forked later: a query's megabyte temporaries (the
        # frame's encode and join, the transport buffers) then reuse heap
        # pages instead of mapping and faulting in fresh ones each time.  The
        # buffer is calloc'd, so no page of it is touched; other allocators
        # pay nothing.
        bytes(30 << 20)
        asyncio.run(_serve(service, host, port, admission_limit, ready))
    finally:
        service.close()
