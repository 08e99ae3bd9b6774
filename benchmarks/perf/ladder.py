"""The traced pass: a ladder of rungs from the operation down to kernels.

For a fixed number of the workload's operations (the same generator and
seed as the timed phase) this replays each rung of the system with spans
recorded around it, all from this file:

- serve:  TCP operation → ``QueryService.render`` →
  ``WarmPool.submit().result()`` → isolated layer calls on the same
  unit of work (generate, extract, project, rasterise, merge, encode);
- batch:  operation → engine ``construct`` + ``run_cycles`` → isolated
  store reads, extraction and active-pixel raster/merge;
- sim:    scenario point → cluster build, graph build, engine construct,
  engine run.

Spans nest where one call really runs inside the other (``render`` calls
``submit``).  The isolated layer calls replay *the same work outside the
pipeline*, single-threaded; they carry ``isolated: true`` and no parent.
Counts (triangles, stream bytes, acks, cache hits, simulated makespans)
are exact and repeat for a fixed seed, because the replay is a fixed
list of operations driven by one client.
"""

from __future__ import annotations

import base64
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import loadgen
import rig
import scene as scenes
import server as serve_process
import workloads
from repro.cache import ResultCache, content_key
from repro.core.buffer import BufferCodec, DataBuffer
from repro.core.tracing import Tracer
from repro.data import DeclusteredStore
from repro.engines import SimulatedEngine, WarmPool
from repro.serve import ppm_bytes
from repro.viz import IsosurfaceApp
from repro.viz.active_pixel import ActivePixelMerger, ActivePixelRaster
from repro.viz.filters import ZB_SLAB_ENTRIES, ChunkPayload, TrianglePayload
from repro.viz.marching_cubes import extract_triangles
from repro.viz.profile import dataset_25gb
from repro.viz.raster import ZBuffer
from repro.viz.shading import shade_triangles
from spans import Spans

#: Replayed operations per workload — about a quarter of what the timed
#: phase completes — and the smoke-test counts.
TRACE_OPS = {
    "serve_distinct": 20, "serve_zipf": 48, "batch_process": 3,
    "batch_threaded": 2, "sim_table4": 40,
}
QUICK_TRACE_OPS = {
    "serve_distinct": 6, "serve_zipf": 8, "batch_process": 1,
    "batch_threaded": 1, "sim_table4": 6,
}
#: Operations whose unit of work also goes through the bare pool and the
#: isolated layer calls.
LAYER_OPS = 6
PINGS = 50
MICRO_REPEATS = 15


@dataclass
class Traced:
    """Per-layer values of one traced pass (metric name -> value)."""

    values: dict
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def chunks_of(profile):
    return [chunk for data_file in profile.files for chunk in data_file.chunks]


def world_origin(chunk):
    return (float(chunk.start[2]), float(chunk.start[1]), float(chunk.start[0]))


# -- isolated layer calls ----------------------------------------------------
def extract_layers(spans, provider, span_name, profile, uow, op):
    """Read/generate every chunk, then run marching cubes on each."""
    chunks = chunks_of(profile)
    with spans.span(span_name, op, isolated=True):
        # copy, so a memory-mapped read really moves its bytes here
        fields = [
            provider.chunk_field(chunk, uow["timestep"], 0).copy()
            for chunk in chunks
        ]
    with spans.span("viz.marching_cubes.extract", op, isolated=True) as row:
        triangles = {
            chunk.chunk_id: extract_triangles(
                scalars, uow["isovalue"], origin=world_origin(chunk)
            )
            for chunk, scalars in zip(chunks, fields)
        }
        row["triangles"] = sum(len(t) for t in triangles.values())
    return chunks, fields, triangles


def project_layers(spans, triangles, camera, op):
    """Shade and project each triangle buffer (front half of Raster)."""
    with spans.span("viz.raster.project_shade", op, isolated=True):
        projected = []
        for tris in triangles.values():
            if len(tris):
                colors = shade_triangles(tris)
                screen, kept = camera.project_and_cull(tris)
                projected.append((screen, colors[kept]))
    return projected


def zbuffer_layers(spans, projected, scene, op):
    """Two raster copies' z-buffers, then the merge of one into the other."""
    halves = [ZBuffer(scene.image, scene.image) for _ in range(2)]
    with spans.span("viz.raster.zbuffer", op, isolated=True):
        for index, (screen, colors) in enumerate(projected):
            halves[index % 2].rasterize(screen, colors)
    with spans.span("viz.raster.merge", op, isolated=True):
        halves[0].merge(halves[1])
    return halves[0]


def active_pixel_layers(spans, projected, scene, op):
    raster = ActivePixelRaster(scene.image, scene.image)
    merger = ActivePixelMerger(scene.image, scene.image)
    with spans.span("viz.active_pixel.raster", op, isolated=True) as row:
        buffers = [
            wpa for screen, colors in projected
            for wpa in raster.process(screen, colors)
        ]
        row["wpa_bytes"] = sum(wpa.nbytes for wpa in buffers)
    with spans.span("viz.active_pixel.merge", op, isolated=True):
        for wpa in buffers:
            merger.merge(wpa)
    return merger.image()


def egress_layers(spans, image, template: dict, op):
    """Frame egress as ``render`` does it: PPM, base64, one JSON line."""
    with spans.span("serve.frame_encode", op, isolated=True):
        frame = base64.b64encode(ppm_bytes(image)).decode()
    with spans.span("serve.json_encode", op, isolated=True) as row:
        line = json.dumps({**template, "frame_b64": frame}).encode() + b"\n"
        row["response_bytes"] = len(line)


def codec_layers(spans, payloads: dict) -> dict:
    """Encode, decode and release each real payload through the codec."""
    codec = BufferCodec()
    values = {}
    for label, buffer in payloads.items():
        for _ in range(MICRO_REPEATS):
            with spans.span("core.buffer.encode", payload=label, isolated=True):
                encoded = codec.encode(buffer)
            with spans.span("core.buffer.decode", payload=label, isolated=True):
                _decoded, lease = codec.decode(encoded)
                lease.release()
        values[f"core.buffer.encode_ms.{label}"] = spans.median_ms(
            "core.buffer.encode", payload=label
        )
        values[f"core.buffer.decode_ms.{label}"] = spans.median_ms(
            "core.buffer.decode", payload=label
        )
        values[f"core.buffer.shared_bytes.{label}"] = encoded.shared_bytes
    return values


def triangle_payload(triangles) -> DataBuffer:
    """The largest E -> Ra buffer of the unit of work just replayed."""
    biggest = max(triangles.values(), key=len)
    return DataBuffer(biggest.nbytes, TrianglePayload(biggest))


def cache_layers(spans, triangles: dict) -> dict:
    """``content_key``, ``put`` and ``get`` on one real triangle set."""
    cache = ResultCache(workloads.ZIPF_CACHE_MB * 2**20)
    items = tuple(sorted(triangles.items()))
    nbytes = sum(array.nbytes for _chunk, array in items)
    for repeat in range(MICRO_REPEATS):
        with spans.span("cache.content_key", isolated=True):
            content_key("triangles", items)
        key = content_key("ladder", repeat)
        with spans.span("cache.put", isolated=True):
            cache.put("triangles", key, items, nbytes)
        with spans.span("cache.get", isolated=True):
            cache.get("triangles", key)
    return {
        f"cache.{call}_us": spans.median_ms(f"cache.{call}") * 1e3
        for call in ("content_key", "put", "get")
    }


# -- serve_distinct / serve_zipf ---------------------------------------------
@contextmanager
def pool_submit_spans(spans):
    """Record ``WarmPool.submit(...).result()`` as a span while active.

    ``QueryService.render`` calls exactly that pair, so the span nests
    under ``serve.render`` and splits it into front-end and pool time.
    Submits made outside any span (warm-up queries) are left alone.
    """
    original = WarmPool.submit

    def submit(pool, uow=None, tracer=None):
        if not spans.active:
            return original(pool, uow, tracer)
        span = spans.open("engines.pool.submit")
        pending = original(pool, uow, tracer)
        wait = pending.result

        def result(timeout=None):
            try:
                return wait(timeout)
            finally:
                spans.close(span)

        pending.result = result
        return pending

    WarmPool.submit = submit
    try:
        yield
    finally:
        WarmPool.submit = original


def render_replay(scene, cache_mb, warmup, requests, spans=None):
    """Render ``requests`` on a fresh in-process service, one at a time."""
    service = serve_process.build_service(scene, cache_mb)
    try:
        for request in warmup:
            service.render(dict(request))
        seconds, responses = [], []
        for op, request in enumerate(requests):
            span = spans.open("serve.render", op) if spans else None
            t0 = time.perf_counter()
            response = service.render(dict(request))
            seconds.append(time.perf_counter() - t0)
            if spans:
                spans.close(span, cached=response["cached"])
            responses.append(response)
        return seconds, responses, service.cache_stats()
    finally:
        service.close()


def serve_ladder(name, scene, seed, count, spans) -> Traced:
    cache_mb = workloads.ZIPF_CACHE_MB if name == "serve_zipf" else 0
    requests, keys = workloads.serve_requests(
        name, seed, 0, count, scene.timesteps
    )
    warmup = requests[: workloads.SERVE_WARMUP]
    requests = requests[workloads.SERVE_WARMUP :]
    keys = keys[workloads.SERVE_WARMUP :]
    traced = Traced(values={}, attempted=len(requests))
    values = traced.values
    shm_before = rig.shm_listing()

    # rung 1: the operation as one client sees it over TCP
    server = loadgen.Server(scene, cache_mb)
    try:
        with server.connect() as conn:
            for request in warmup:
                conn.call(request)
            pings = [conn.call({"cmd": "ping"})[0] for _ in range(PINGS)]
            tcp_digests = []
            for op, request in enumerate(requests):
                span = spans.open("tcp.op", op)
                _latency, line = conn.call(request)
                spans.close(span)
                response = json.loads(line)
                tcp_digests.append(
                    loadgen.frame_digest(response) if response.get("ok") else ""
                )
    finally:
        server.stop()

    # rung 2: QueryService.render in this process, without and with spans
    plain_s, _responses, _stats = render_replay(
        scene, cache_mb, warmup, requests
    )
    with pool_submit_spans(spans):
        _seconds, responses, cache_stats = render_replay(
            scene, cache_mb, warmup, requests, spans
        )
    for op, response in enumerate(responses):
        if loadgen.frame_digest(response) != tcp_digests[op]:
            traced.failed += 1
            traced.problems.append(f"op {op}: TCP and in-process frames differ")

    # per-operation differences between rungs (the same op is a hit or a
    # miss on every rung, so medians of differences stay meaningful on a
    # bimodal mix where differences of medians would not)
    tcp_s = spans.seconds("tcp.op")
    render_s = spans.seconds("serve.render")
    values["serve.tcp_ping_ms"] = median_ms(pings)
    values["serve.render_ms"] = median_ms(render_s)
    values["serve.hit_render_ms"] = spans.median_ms("serve.render", cached=True)
    values["serve.miss_render_ms"] = spans.median_ms("serve.render", cached=False)
    values["serve.frontend_self_ms"] = median_ms(
        [tcp - render for tcp, render in zip(tcp_s, render_s)]
    )
    # over pipeline runs only: a cached render is a few ms of allocating
    # megabyte buffers and flips between ~2 and ~6 ms for stretches of
    # requests in either pass, which says nothing about the spans
    values["trace_overhead_ratio"] = statistics.median(
        traced / plain
        for traced, plain, response in zip(render_s, plain_s, responses)
        if not response["cached"]
    )

    shared = cache_stats.get("shared")
    if shared:
        def ratio(tier):
            hits, misses = tier["hits"], tier["misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        values["cache.hit_ratio"] = ratio(shared)
        values["cache.triangles.hit_ratio"] = ratio(shared["by_tier"]["triangles"])
        values["cache.tiles.hit_ratio"] = ratio(shared["by_tier"]["tiles"])
        values["cache.evictions"] = shared["evictions"]
        values["cache.size_bytes"] = shared["size_bytes"]
        values["cache.bytes_saved"] = shared["bytes_saved"]

    # rungs 3 and 4 take one request per distinct query, pipeline misses
    layer_ops = workloads.first_occurrences(keys)[:LAYER_OPS]

    # rung 3: the bare warm pool, with the program's own Tracer attached
    dataset, profile = rig.dataset_and_profile(scene)
    graph, placement = rig.pipeline(
        scene, profile, dataset, *rig.SERVE_PIPELINE
    )
    with spans.span("engines.pool.build"):
        pool = WarmPool(graph, placement, policy="DD", max_inflight=2)
    runs = []
    try:
        pool.submit(rig.uow(warmup[0], scene)).result()
        for op in layer_ops:
            tracer = Tracer()
            with spans.span("engines.pool.submit+tracer", op):
                metrics = pool.submit(
                    rig.uow(requests[op], scene), tracer=tracer
                ).result()
            runs.append((metrics.validate(graph), tracer.stage_busy()))
    finally:
        pool.close()
    values.update(spans.medians_ms("engines.pool.build"))
    values["engines.pool.submit_ms"] = spans.median_ms("engines.pool.submit+tracer")
    values["engines.pool.makespan_ms"] = median_ms([m.makespan for m, _ in runs])
    values["engines.pool.acks"] = statistics.median(
        m.ack_messages for m, _ in runs
    )
    for stage in ("R", "E", "Ra", "M"):
        values[f"engines.pool.stage_busy_ms.{stage}"] = median_ms(
            [busy.get(stage, 0.0) for _, busy in runs]
        )
    for stream in ("R->E", "E->Ra", "Ra->M"):
        values[f"engines.pool.stream_bytes.{stream.replace('->', '-')}"] = (
            statistics.median(m.stream_totals(stream)[1] for m, _ in runs)
        )

    # rung 4: the same units of work through each layer's public calls
    isolated_match = 0
    for position, op in enumerate(layer_ops):
        uow = rig.uow(requests[op], scene)
        chunks, fields, triangles = extract_layers(
            spans, dataset, "data.parssim.chunk_field", profile, uow, op
        )
        projected = project_layers(spans, triangles, uow["camera"], op)
        zbuffer = zbuffer_layers(spans, projected, scene, op)
        egress_layers(spans, zbuffer.image(), responses[op], op)
        isolated_match += rig.frame_b64(zbuffer.image()) == responses[op]["frame_b64"]
        if position == 0:
            slab = zbuffer.slabs(ZB_SLAB_ENTRIES)[0]
            values.update(
                codec_layers(
                    spans,
                    {
                        "chunk": DataBuffer(
                            chunks[0].nbytes, ChunkPayload(chunks[0], fields[0])
                        ),
                        "triangles": triangle_payload(triangles),
                        "zslab": DataBuffer(slab.nbytes, slab),
                    },
                )
            )
            if shared:
                values.update(cache_layers(spans, triangles))
    kernels = spans.medians_ms(
        "data.parssim.chunk_field", "viz.marching_cubes.extract",
        "viz.raster.project_shade", "viz.raster.zbuffer", "viz.raster.merge",
    )
    values.update(kernels)
    values.update(spans.medians_ms("serve.frame_encode", "serve.json_encode"))
    values["viz.marching_cubes.triangles"] = spans.median_of(
        "viz.marching_cubes.extract", "triangles"
    )
    values["serve.response_bytes"] = spans.median_of(
        "serve.json_encode", "response_bytes"
    )

    if rig.shm_listing() != shm_before:
        traced.failed += 1
        traced.problems.append("/dev/shm listing changed across the ladder")

    # how the rungs add up to what one client waits for, on pipeline misses
    missed = [op for op, r in enumerate(responses) if not r["cached"]]
    tcp_miss_ms = median_ms([tcp_s[op] for op in missed])
    rungs = {
        "frontend_self (tcp - render)": median_ms(
            [tcp_s[op] - render_s[op] for op in missed]
        ),
        "render_self (render - submit)": median_ms(
            [s for s, r in zip(spans.self_seconds("serve.render"), responses)
             if not r["cached"]]
        ),
        "pool submit (inside render)": spans.median_ms("engines.pool.submit"),
    }
    kernels_ms = sum(kernels.values())
    traced.facts = {
        "replayed_operations": len(requests),
        "layer_operations": len(layer_ops),
        "cached_responses": len(responses) - len(missed),
        "tcp_1client_p50_ms": round(median_ms(tcp_s), 3),
        "tcp_1client_miss_p50_ms": round(tcp_miss_ms, 3),
        "ladder_ms": {k: round(v, 3) for k, v in rungs.items()},
        "ladder_residual_ms (miss p50 - sum of rungs)": round(
            tcp_miss_ms - sum(rungs.values()), 3
        ),
        "isolated_kernels_sum_ms": round(kernels_ms, 3),
        "transport_remainder_ms (submit - kernels; 2 copies overlap)": round(
            values["engines.pool.submit_ms"] - kernels_ms, 3
        ),
        "isolated_frames_match_served": f"{isolated_match}/{len(layer_ops)}",
    }
    return traced


# -- batch_process / batch_threaded ------------------------------------------
def batch_ladder(name, scene, seed, count, spans) -> Traced:
    engine = name.removeprefix("batch_")
    engine_cls = workloads.BATCH_ENGINES[engine]
    operations = workloads.batch_uows(seed, count, scene)
    traced = Traced(values={}, attempted=count)
    values = traced.values
    shm_before = rig.shm_listing()

    with rig.scratch_dir() as directory:
        dataset, profile = rig.dataset_and_profile(scene)
        with spans.span("data.diskstore.write"):
            DeclusteredStore.write(dataset, profile, directory / "store")
        store = DeclusteredStore.open(directory / "store")
        graph, placement = rig.pipeline(
            scene, profile, store, *rig.BATCH_PIPELINE
        )
        engine_cls(graph, placement, policy="DD")  # as the timed workload does

        plain_s = []
        for uows in operations:
            t0 = time.perf_counter()
            workloads.run_batch_operation(engine_cls, graph, placement, uows)
            plain_s.append(time.perf_counter() - t0)

        busy: list[dict] = []
        acks: list[float] = []
        for op, uows in enumerate(operations):
            tracer = Tracer()
            with spans.span("batch.op", op):
                with spans.span(f"engines.{engine}.construct"):
                    runner = engine_cls(
                        graph, placement, policy="DD", tracer=tracer
                    )
                with spans.span(f"engines.{engine}.run_cycles"):
                    results = runner.run_cycles(uows)
            for metrics in results:
                metrics.validate(graph)
            busy.append(tracer.stage_busy())
            acks.append(sum(m.ack_messages for m in results) / len(results))

        # isolated layers on the first unit of work of each operation
        for op, uows in enumerate(operations):
            uow = uows[0]
            _chunks, _fields, triangles = extract_layers(
                spans, DeclusteredStore.open(directory / "store"),
                "data.diskstore.read", profile, uow, op,
            )
            projected = project_layers(spans, triangles, uow["camera"], op)
            active_pixel_layers(spans, projected, scene, op)
            if op == 0 and engine == "process":
                # RE is fused here: triangles are the only codec payload
                # this pipeline shares with the serve one
                values.update(
                    codec_layers(
                        spans, {"triangles": triangle_payload(triangles)}
                    )
                )
        store_mb = store.total_bytes() / 2**20

    cycles = scene.timesteps
    values.update(
        spans.medians_ms(
            f"engines.{engine}.construct", f"engines.{engine}.run_cycles",
            "viz.marching_cubes.extract", "viz.raster.project_shade",
            "viz.active_pixel.raster", "viz.active_pixel.merge",
        )
    )
    for stage in ("RE", "Ra", "M"):
        values[f"engines.{engine}.stage_busy_ms.{stage}"] = median_ms(
            [b.get(stage, 0.0) / cycles for b in busy]
        )
    if engine == "process":
        values["engines.process.acks"] = statistics.median(acks)
    write_s = spans.seconds("data.diskstore.write")[0]
    read_s = statistics.median(spans.seconds("data.diskstore.read"))
    values["data.diskstore.write_ms"] = write_s * 1e3
    values["data.diskstore.write_mb_per_s"] = store_mb / write_s
    values["data.diskstore.read_ms"] = read_s * 1e3
    values["data.diskstore.read_mb_per_s"] = store_mb / cycles / read_s
    values["viz.marching_cubes.triangles"] = spans.median_of(
        "viz.marching_cubes.extract", "triangles"
    )
    values["viz.active_pixel.wpa_bytes"] = spans.median_of(
        "viz.active_pixel.raster", "wpa_bytes"
    )
    values["trace_overhead_ratio"] = statistics.median(
        traced / plain
        for traced, plain in zip(spans.seconds("batch.op"), plain_s)
    )

    if rig.shm_listing() != shm_before:
        traced.failed += 1
        traced.problems.append("/dev/shm listing changed across the ladder")
    traced.facts = {
        "replayed_operations": count,
        "units_of_work_per_operation": cycles,
        "store_mb": round(store_mb, 3),
        "page_cache": "warm (the store was written moments before it is read)",
        "op_self_ms (op - construct - run_cycles)": round(
            median_ms(spans.self_seconds("batch.op")), 3
        ),
    }
    return traced


# -- sim_table4 --------------------------------------------------------------
def sim_ladder(seed, count, spans) -> Traced:
    points = scenes.sim_points(seed, passes=1)
    profile = dataset_25gb(scale=scenes.SIM_SCALE)
    # one block holds every (configuration, algorithm, policy): the
    # memoised analysis passes are paid here, not by whichever pass is first
    for point in points[: scenes.SIM_BLOCK]:
        workloads.sim_point(profile, point)
    points = points[:count]
    traced = Traced(values={}, attempted=count)
    values = traced.values
    names = workloads.SIM_HOSTS

    plain_s, makespans = [], []
    for point in points:
        t0 = time.perf_counter()
        makespans.append(workloads.sim_point(profile, point).makespan)
        plain_s.append(time.perf_counter() - t0)

    speeds, buffers = [], []
    for op, point in enumerate(points):
        config, algorithm, policy, image, jobs = point
        with spans.span("sim.op", op):
            with spans.span("sim.cluster.build"):
                cluster = workloads.sim_testbed(jobs)
            with spans.span("viz.app.graph"):
                app = IsosurfaceApp(
                    profile, workloads.sim_storage(profile), width=image,
                    height=image, algorithm=algorithm, timestep=0,
                )
                graph = app.graph(config)
                placement = app.placement(
                    config, compute_hosts=names, merge_host=names[-1]
                )
            with spans.span("engines.simulated.construct"):
                engine = SimulatedEngine(cluster, graph, placement, policy=policy)
            with spans.span("engines.simulated.run") as row:
                metrics = engine.run().validate(graph)
            run_s = row["end"] - row["start"]
        if metrics.makespan != makespans[op]:
            traced.failed += 1
            traced.problems.append(f"point {point}: makespan not reproduced")
        speeds.append(metrics.makespan / run_s)
        buffers.append(sum(s.buffers for s in metrics.streams.values()))

    values.update(
        spans.medians_ms(
            "sim.cluster.build", "viz.app.graph",
            "engines.simulated.construct", "engines.simulated.run",
        )
    )
    values["engines.simulated.sim_s_per_wall_s"] = statistics.median(speeds)
    values["engines.simulated.buffers"] = statistics.median(buffers)
    values["trace_overhead_ratio"] = statistics.median(
        traced / plain
        for traced, plain in zip(spans.seconds("sim.op"), plain_s)
    )
    traced.facts = {
        "replayed_operations": count,
        "simulated_makespan_sum_s": round(sum(makespans), 6),
        "op_self_ms (op - its four steps)": round(
            median_ms(spans.self_seconds("sim.op")), 4
        ),
    }
    return traced


def run(name: str, scene, seed: int, quick: bool) -> Traced:
    count = (QUICK_TRACE_OPS if quick else TRACE_OPS)[name]
    spans = Spans()
    try:
        if name.startswith("serve_"):
            return serve_ladder(name, scene, seed, count, spans)
        if name.startswith("batch_"):
            return batch_ladder(name, scene, seed, count, spans)
        return sim_ladder(seed, count, spans)
    finally:
        spans.write(rig.OUT / f"trace-{name}.jsonl")
