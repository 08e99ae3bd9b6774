"""The five workloads: set-up, timed phase and correctness gate of each.

Every workload returns a :class:`Measured`.  Timed phases run with no
tracing of any kind; the correctness gate runs after the clock stopped.
An operation that was refused, failed, returned a wrong frame or leaked
shared memory counts as *failed* and contributes no latency sample.

A timed phase is a sequence of *segments* with one burst of the machine-
speed reference (:mod:`reference`) between them, while the system under
test is idle; the clock is read between segments only.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

import loadgen
import rig
import scene as scenes
from repro.data.storage import HostDisks, StorageMap
from repro.engines import ProcessEngine, ThreadedEngine
from repro.experiments.common import run_datacutter
from repro.sim.cluster import umd_testbed
from repro.sim.kernel import Environment
from repro.viz.profile import dataset_25gb

SERVE_CLIENTS = 2
SERVE_WARMUP = 3
#: Served queries per segment: one Latin-hypercube block of distinct
#: queries (~3 s), 64 of the cheaper Zipf mix (~4 s).
SERVE_SEGMENT = {"serve_distinct": 16, "serve_zipf": 64}
ZIPF_CACHE_MB = 32
ZIPF_DISTINCT = 20
ZIPF_EXPONENT = 1.1
#: Operations compared bit-for-bit against another engine's render.
REFERENCE_SAMPLES = 8
#: Sampled operations come from the first this-many, which every run
#: of the full benchmark completes.
SAMPLE_WINDOW = 40

BATCH_ENGINES = {"process": ProcessEngine, "threaded": ThreadedEngine}


@dataclass
class Segment:
    """A stretch of the timed phase between two reference bursts."""

    #: mean duration of the burst before and the burst after, seconds
    reference_s: float
    #: first operation started to last operation completed, seconds
    wall_s: float
    #: latency of every correct operation of the segment, seconds
    latencies_s: list[float]


@dataclass
class Measured:
    """What one workload run produced, before metrics are derived."""

    segments: list[Segment]
    attempted: int
    failed: int
    #: (seconds, mean of the reference bursts around it) per set-up
    setups: list[tuple[float, float]]
    problems: list[str] = field(default_factory=list)
    #: exact counts worth printing beside the metrics (N, hit ratio, ...)
    facts: dict = field(default_factory=dict)


# -- serve_distinct / serve_zipf ---------------------------------------------
def serve_requests(name: str, seed: int, seconds: float, max_ops, timesteps):
    """(requests, identity key per request) for a serve workload."""
    if name == "serve_distinct":
        count = SERVE_WARMUP + (max_ops or int(seconds * 30))
        requests = scenes.queries(seed, count, timesteps)
        return requests, list(range(count))
    distinct = scenes.zipf_queries(seed, ZIPF_DISTINCT, timesteps)
    count = SERVE_WARMUP + (max_ops or int(seconds * 120))
    ranks = scenes.zipf_mix(count, ZIPF_DISTINCT, ZIPF_EXPONENT)
    return [distinct[rank] for rank in ranks], ranks


def first_occurrences(keys: list) -> list[int]:
    """Index of the first operation of each distinct request, ascending."""
    first: dict = {}
    for index, key in enumerate(keys):
        first.setdefault(key, index)
    return sorted(first.values())


def sample_operations(keys: list, seed: int) -> list[int]:
    """Indices of the operations to compare against a reference render.

    One per distinct request among the first :data:`SAMPLE_WINDOW`
    operations (a repeat would only re-check the identical-frames rule).
    """
    candidates = first_occurrences(keys[:SAMPLE_WINDOW])
    rng = random.Random(seed ^ 0xC0FFEE)
    return sorted(rng.sample(candidates, min(REFERENCE_SAMPLES, len(candidates))))


def reference_frames(scene, queries: list[dict]) -> list[str]:
    """Cold ``ThreadedEngine`` renders of the serve pipeline, as frames."""
    dataset, profile = rig.dataset_and_profile(scene)
    graph, placement = rig.pipeline(
        scene, profile, dataset, *rig.SERVE_PIPELINE
    )
    engine = ThreadedEngine(graph, placement, policy="DD")
    results = engine.run_cycles([rig.uow(query, scene) for query in queries])
    return [rig.frame_b64(metrics.result.image) for metrics in results]


def serve(name, scene, seed, seconds, max_ops, setups, ref) -> Measured:
    zipf = name == "serve_zipf"
    requests, keys = serve_requests(
        name, seed, seconds, max_ops, scene.timesteps
    )
    warmup, requests = requests[:SERVE_WARMUP], requests[SERVE_WARMUP:]
    keys = keys[SERVE_WARMUP:]
    sampled = set(sample_operations(keys, seed))
    shm_before = rig.shm_listing()
    problems: list[str] = []
    records: list[tuple] = []
    frames: dict[int, str] = {}
    spans: list[tuple] = []  # (reference_s, wall_s, first op, one past last)

    timed_setups: list[tuple[float, float]] = []
    server = None
    connections: list = []
    try:
        before = ref.burst()
        for _ in range(setups):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = loadgen.Server(scene, ZIPF_CACHE_MB if zipf else 0)
            with server.connect() as conn:
                _latency, line = conn.call(warmup[0])
            if json.loads(line).get("ok") is not True:
                raise RuntimeError(f"warm-up query failed: {line[:200]!r}")
            took = time.perf_counter() - t0
            after = ref.burst()
            timed_setups.append((took, (before + after) / 2))
            before = after
        connections = loadgen.open_connections(server, SERVE_CLIENTS)
        for request in warmup[1:]:
            connections[0].call(request)

        before = ref.burst()
        deadline = time.perf_counter() + seconds
        step = SERVE_SEGMENT[name]
        for first in range(0, len(requests), step):
            if time.perf_counter() >= deadline:
                break
            out = loadgen.closed_loop(
                connections, requests[first : first + step], first, sampled
            )
            after = ref.burst()
            spans.append(
                ((before + after) / 2, out["wall_s"], first, first + step)
            )
            before = after
            records.extend(out["records"])
            frames.update(out["frames"])
            problems.extend(out["errors"])
        _latency, line = connections[0].call({"cmd": "stats"})
        stats = json.loads(line)["stats"]
    finally:
        for conn in connections:
            conn.close()
        if server is not None:
            server.stop()

    bad = {record[0] for record in records if not record[2]}

    # identical queries must return byte-identical frames within a run
    digests: dict = {}
    for index, _lat, ok, _cached, digest in records:
        if ok and digests.setdefault(keys[index], digest) != digest:
            bad.add(index)
            problems.append(f"op {index}: frame differs from its twin")

    done = sorted(frames)
    expected = reference_frames(scene, [requests[i] for i in done])
    for index, frame in zip(done, expected):
        if frames[index] != frame:
            bad.add(index)
            problems.append(f"op {index}: frame differs from ThreadedEngine")

    failed = len(bad)
    if not done:
        failed += 1
        problems.append("no sampled operation completed")
    if rig.shm_listing() != shm_before:
        failed += 1
        problems.append("/dev/shm listing changed across the workload")

    good = [r for r in records if r[0] not in bad]
    cached = sum(1 for r in good if r[3])
    facts = {
        "clients": SERVE_CLIENTS,
        "operations": len(records),
        "reference_checked": len(done),
        "cached_responses": cached,
        "cached_ratio": round(cached / len(good), 4) if good else 0.0,
    }
    shared = stats["cache"].get("shared")
    if shared:
        facts["cache_hit_rate"] = shared["hit_rate"]
        facts["cache_evictions"] = shared["evictions"]
    return Measured(
        segments=[
            Segment(
                reference_s, wall_s,
                [r[1] for r in good if first <= r[0] < last],
            )
            for reference_s, wall_s, first, last in spans
        ],
        attempted=len(records),
        failed=min(failed, len(records)),
        setups=timed_setups,
        problems=problems,
        facts=facts,
    )


# -- batch_process / batch_threaded ------------------------------------------
def batch_uows(seed: int, count: int, scene) -> list[list[dict]]:
    """``count`` batch jobs as lists of units of work."""
    return [
        [rig.uow(query, scene) for query in operation]
        for operation in scenes.batch_operations(seed, count, scene)
    ]


def run_batch_operation(engine_cls, graph, placement, uows):
    """One cold batch job: construct the engine, run every timestep."""
    return engine_cls(graph, placement, policy="DD").run_cycles(uows)


def batch(name, scene, seed, seconds, max_ops, setups, import_s, ref) -> Measured:
    engine_cls = BATCH_ENGINES[name.removeprefix("batch_")]
    other_cls = ThreadedEngine if engine_cls is ProcessEngine else ProcessEngine
    # the reference engine renders 8 units of work (threaded reference)
    # or one whole operation (the one ProcessEngine run)
    reference_ops = (
        REFERENCE_SAMPLES // scene.timesteps
        if other_cls is ThreadedEngine else 1
    )
    operations = batch_uows(seed, max_ops or int(seconds * 3) + 2, scene)
    shm_before = rig.shm_listing()
    problems: list[str] = []
    segments: list[Segment] = []
    kept: list[list] = []
    attempted = failed = 0

    with rig.scratch_dir() as directory:
        timed_setups = []
        before = ref.burst()
        for i in range(setups):
            t0 = time.perf_counter()
            store, profile = rig.write_store(scene, directory / f"s{i}")
            graph, placement = rig.pipeline(
                scene, profile, store, *rig.BATCH_PIPELINE
            )
            # the first construction pays the (memoised) analysis passes
            engine_cls(graph, placement, policy="DD")
            took = import_s + time.perf_counter() - t0
            after = ref.burst()
            timed_setups.append((took, (before + after) / 2))
            before = after

        # every operation is a segment of its own
        deadline = time.perf_counter() + seconds
        for uows in operations:
            if time.perf_counter() >= deadline:
                break
            attempted += 1
            latencies = []
            t0 = time.perf_counter()
            try:
                results = run_batch_operation(
                    engine_cls, graph, placement, uows
                )
                took = time.perf_counter() - t0
                for metrics in results:
                    metrics.validate(graph)
                latencies.append(took)
                if len(kept) < reference_ops:
                    kept.append([m.result.image.copy() for m in results])
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                took = time.perf_counter() - t0
                failed += 1
                problems.append(f"op {attempted - 1}: {exc!r}")
            after = ref.burst()
            segments.append(Segment((before + after) / 2, took, latencies))
            before = after

        for op, images in enumerate(kept):
            reference = run_batch_operation(
                other_cls, graph, placement, operations[op]
            )
            for cycle, (image, metrics) in enumerate(zip(images, reference)):
                if not (image == metrics.result.image).all():
                    failed += 1
                    problems.append(
                        f"op {op} timestep {cycle}: frame differs from "
                        f"{other_cls.__name__}"
                    )
    if rig.shm_listing() != shm_before:
        failed += 1
        problems.append("/dev/shm listing changed across the workload")
    return Measured(
        segments=segments,
        attempted=attempted,
        failed=min(failed, attempted),
        setups=timed_setups,
        problems=problems,
        facts={
            "operations": attempted,
            "units_of_work_per_operation": scene.timesteps,
            "reference_checked": sum(len(images) for images in kept),
        },
    )


# -- sim_table4 --------------------------------------------------------------
SIM_HOSTS = [f"rogue{i}" for i in range(scenes.SIM_NODES)]


def sim_testbed(jobs: int):
    """A fresh 8-Rogue-node cluster with ``jobs`` background jobs on four."""
    cluster = umd_testbed(
        Environment(), red_nodes=0, blue_nodes=0,
        rogue_nodes=scenes.SIM_NODES, deathstar=False,
    )
    cluster.set_background_load(jobs, hosts=SIM_HOSTS[: scenes.SIM_LOADED])
    return cluster


def sim_storage(profile) -> StorageMap:
    return StorageMap.balanced(
        profile.files, [HostDisks(host, 2) for host in SIM_HOSTS]
    )


def sim_point(profile, point):
    """One scenario point of Table 4 on a fresh simulated testbed."""
    config, algorithm, policy, image, jobs = point
    # run_datacutter validates every RunMetrics it returns
    (metrics,) = run_datacutter(
        sim_testbed(jobs), profile, sim_storage(profile),
        configuration=config, algorithm=algorithm, policy=policy,
        width=image, height=image, timesteps=(0,),
        compute_hosts=SIM_HOSTS, merge_host=SIM_HOSTS[-1],
    )
    return metrics


def sim(scene, seed, seconds, max_ops, setups, import_s, ref) -> Measured:
    del scene  # the simulator's input size is the paper's, scaled
    if max_ops is None:
        # enough passes over the grid to outlast the clock (>= 25 ms a point)
        points = scenes.sim_points(seed, passes=2 + int(seconds * 40 / 96))
    else:
        points = scenes.sim_points(seed, passes=1)[: max_ops // 2] * 2
    problems: list[str] = []
    timed_setups = []
    before = ref.burst()
    for _ in range(setups):
        t0 = time.perf_counter()
        profile = dataset_25gb(scale=scenes.SIM_SCALE)
        sim_point(profile, points[0])
        took = import_s + time.perf_counter() - t0
        after = ref.burst()
        timed_setups.append((took, (before + after) / 2))
        before = after

    # a segment is one block: every (configuration, algorithm, policy) once
    segments: list[Segment] = []
    makespans: dict[tuple, float] = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for first in range(0, len(points), scenes.SIM_BLOCK):
        if time.perf_counter() >= deadline:
            break
        latencies = []
        t_block = time.perf_counter()
        for point in points[first : first + scenes.SIM_BLOCK]:
            attempted += 1
            t0 = time.perf_counter()
            try:
                metrics = sim_point(profile, point)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                failed += 1
                problems.append(f"point {point}: {exc!r}")
                continue
            took = time.perf_counter() - t0
            # every later visit of a point must reproduce its makespan exactly
            if makespans.setdefault(point, metrics.makespan) != metrics.makespan:
                failed += 1
                problems.append(f"point {point}: makespan changed between passes")
                continue
            latencies.append(took)
        wall = time.perf_counter() - t_block
        after = ref.burst()
        segments.append(Segment((before + after) / 2, wall, latencies))
        before = after
    return Measured(
        segments=segments,
        attempted=attempted,
        failed=failed,
        setups=timed_setups,
        problems=problems,
        facts={
            "operations": attempted,
            "distinct_points": len(makespans),
            "revisited_points": attempted - len(makespans),
            "simulated_makespan_sum_s": round(sum(makespans.values()), 6),
        },
    )
