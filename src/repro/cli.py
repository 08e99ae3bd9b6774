"""Command-line interface.

Six subcommands::

    python -m repro.cli experiments [NAME ...] [--scale S]
        Regenerate the paper's tables/figures (default: all).

    python -m repro.cli render [--engine threaded|process] [--grid N]
                               [--image W] [--config C] [--algorithm A]
                               [--copies K] [--policy P] [--out FILE.ppm]
                               [--trace] [--trace-out F]
        Render a real isosurface through the real pipeline (threads, or one
        process per copy for actual parallelism) and write a PPM image.
        The simulated engine lives under ``simulate`` — it runs cost
        models, not real filters, so it cannot produce an image.

    python -m repro.cli simulate [--dataset {1.5gb,25gb}] [--scale S]
                                 [--rogue N] [--blue N] [--bg-jobs J]
                                 [--config C] [--policy P] [--image W]
                                 [--trace] [--trace-out F]
        Run one scheduling scenario on the simulated UMD testbed and print
        the makespan and stream statistics.

    python -m repro.cli serve [--host H] [--port P] [--grid N]
                              [--timesteps T] [--image W] [--config C]
                              [--algorithm A] [--copies K] [--policy P]
                              [--max-inflight N] [--admission N]
                              [--idle-timeout S]
        Run the isosurface query service: JSON-lines over TCP, queries
        rendered on warm process pools (see :mod:`repro.serve` and
        ``examples/serve_client.py``).

    python -m repro.cli trace FILE.jsonl [--width N]
        Render the timeline and per-copy utilisation summary of a trace
        exported with ``--trace-out`` (either engine).

    python -m repro.cli lint --graph-module MOD[:ATTR] [--format text|json]
                             [--policy P] [--queue-capacity N] [--rules]
        Verify the live graph+placement pairs of an imported module with
        the rules every engine constructor runs (:mod:`repro.analysis`).
        Exits 1 when any ERROR-level diagnostic fires.

Every engine emits the same trace kinds (:mod:`repro.core.tracing`), so
``--trace``/``--trace-out`` work identically on ``render`` (threaded,
wall clock) and ``simulate`` (simulated clock).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.configurations import ALGORITHMS, CONFIGURATIONS, POLICIES

__all__ = ["main"]

def _cmd_experiments(args: argparse.Namespace) -> int:
    import inspect

    from repro.experiments import EXPERIMENTS

    by_name = {experiment.name: experiment for experiment in EXPERIMENTS}
    names = args.names or [e.name for e in EXPERIMENTS if not e.extension]
    for name in names:
        if name not in by_name:
            print(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(by_name)}",
                file=sys.stderr,
            )
            return 2
        run = by_name[name].load().run
        kwargs = {}
        if args.scale is not None and "scale" in inspect.signature(run).parameters:
            kwargs["scale"] = args.scale
        print(run(**kwargs).format())
        print()
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.data import HostDisks, ParSSimDataset, StorageMap
    from repro.engines import ProcessEngine, ThreadedEngine
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import DatasetProfile

    engine_cls = ProcessEngine if args.engine == "process" else ThreadedEngine

    dataset = ParSSimDataset(
        (args.grid, args.grid, args.grid), timesteps=max(args.timestep + 1, 1),
        seed=args.seed,
    )
    profile = DatasetProfile.measured(
        "cli", dataset, nchunks=args.chunks, nfiles=args.files,
        isovalue=args.isovalue,
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(
        profile,
        storage,
        width=args.image,
        height=args.image,
        algorithm=args.algorithm,
        dataset=dataset,
        isovalue=args.isovalue,
        timestep=args.timestep,
    )
    graph = app.graph(args.config)
    placement = app.placement(args.config, copies_per_host=args.copies)
    tracer = _make_tracer(args)
    metrics = engine_cls(
        graph,
        placement,
        policy=args.policy,
        tracer=tracer,
    ).run()
    metrics.validate(graph)
    result = metrics.result
    with open(args.out, "wb") as fh:
        fh.write(f"P6 {args.image} {args.image} 255\n".encode())
        fh.write(result.image.tobytes())
    print(
        f"rendered {profile.total_triangles(args.timestep)} triangles, "
        f"{result.active_pixels} active pixels -> {args.out}"
    )
    _emit_trace(args, tracer)
    return 0


def _make_tracer(args: argparse.Namespace):
    """A Tracer when ``--trace``/``--trace-out`` asked for one, else None."""
    if not (args.trace or args.trace_out):
        return None
    from repro.core.tracing import Tracer

    return Tracer()


def _emit_trace(args: argparse.Namespace, tracer) -> None:
    """Print and/or export a recorded trace, per the common trace flags."""
    if tracer is None:
        return
    if args.trace:
        print()
        print(tracer.report())
    if args.trace_out:
        tracer.to_jsonl(args.trace_out)
        print(f"trace     : {len(tracer.events)} events -> {args.trace_out}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.data import HostDisks, StorageMap
    from repro.engines import SimulatedEngine
    from repro.sim import Environment, umd_testbed
    from repro.viz import IsosurfaceApp
    from repro.viz.profile import dataset_1p5gb, dataset_25gb

    profile = (
        dataset_25gb(scale=args.scale)
        if args.dataset == "25gb"
        else dataset_1p5gb(scale=args.scale)
    )
    env = Environment()
    cluster = umd_testbed(
        env, red_nodes=0, blue_nodes=args.blue, rogue_nodes=args.rogue,
        deathstar=False,
    )
    rogue = [f"rogue{i}" for i in range(args.rogue)]
    blue = [f"blue{i}" for i in range(args.blue)]
    if args.bg_jobs:
        cluster.set_background_load(args.bg_jobs, hosts=rogue)
    nodes = rogue + blue
    storage = StorageMap.balanced(profile.files, [HostDisks(h, 2) for h in nodes])
    app = IsosurfaceApp(
        profile, storage, width=args.image, height=args.image,
        algorithm=args.algorithm,
    )
    tracer = _make_tracer(args)
    placement = app.placement(args.config, compute_hosts=nodes)
    graph = app.graph(args.config)
    metrics = SimulatedEngine(
        cluster,
        graph,
        placement,
        policy=args.policy,
        tracer=tracer,
    ).run()
    metrics.validate(graph)
    print(f"dataset   : {profile.name}")
    print(f"makespan  : {metrics.makespan:.3f} s")
    for stream, stats in sorted(metrics.streams.items()):
        print(
            f"stream {stream:>10}: {stats.buffers:6d} buffers "
            f"{stats.bytes / 1e6:9.2f} MB"
        )
    if metrics.ack_messages:
        print(
            f"acks      : {metrics.ack_messages} messages "
            f"{metrics.ack_bytes / 1e3:.1f} kB"
        )
    _emit_trace(args, tracer)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DiagnosticReport,
        format_rule_catalogue,
        format_text,
        to_json,
        verify_pipeline,
    )
    from repro.core.policies import stream_policies
    from repro.errors import ConfigurationError

    if args.rules:
        print(format_rule_catalogue())
        return 0
    if not args.graph_module:
        print("nothing to lint: pass --graph-module MOD[:ATTR]", file=sys.stderr)
        return 2
    # The bound every engine refuses below 1: lint must not pass it either.
    if args.queue_capacity < 1:
        raise ConfigurationError(
            f"queue_capacity must be >= 1, got {args.queue_capacity}"
        )
    try:
        loaded = _load_graph_objects(args.graph_module)
    except Exception as exc:  # noqa: BLE001 - user module errors
        print(
            f"cannot load --graph-module {args.graph_module!r}: {exc}",
            file=sys.stderr,
        )
        return 2

    # The engine gate over each live graph/placement of the module.
    report = DiagnosticReport()
    for graph, placement in loaded:
        report.extend(
            verify_pipeline(
                graph,
                placement,
                policy_for=stream_policies(graph, args.policy),
                queue_capacity=args.queue_capacity,
            )
        )

    if args.format == "json":
        print(to_json(report))
    else:
        print(format_text(report))
    return 1 if report.errors else 0


def _load_graph_objects(spec: str) -> list:
    """Resolve ``module[:attr]`` into ``(graph, placement)`` pairs.

    ``attr`` may be a :class:`~repro.core.graph.FilterGraph`, a zero-arg
    callable returning one, a callable returning a ``(graph, placement)``
    tuple, or a callable returning a *list* of such graphs/tuples (one
    lint target per configuration).  Without ``attr``, module-level
    FilterGraph and Placement instances are discovered (a sole Placement
    is paired with every discovered graph).
    """
    import importlib
    import inspect

    from repro.core.graph import FilterGraph
    from repro.core.placement import Placement

    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)

    def as_pair(obj: object) -> tuple[FilterGraph, "Placement | None"]:
        if isinstance(obj, FilterGraph):
            return obj, None
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and isinstance(obj[0], FilterGraph)
        ):
            placement = obj[1] if isinstance(obj[1], Placement) else None
            return obj[0], placement
        raise TypeError(
            f"expected a FilterGraph or (FilterGraph, Placement), "
            f"got {type(obj).__name__}"
        )

    if attr:
        obj = getattr(module, attr)
        if callable(obj) and not isinstance(obj, FilterGraph):
            obj = obj()
        if isinstance(obj, list):
            return [as_pair(item) for item in obj]
        return [as_pair(obj)]

    graphs = [
        value
        for _name, value in inspect.getmembers(module)
        if isinstance(value, FilterGraph)
    ]
    placements = [
        value
        for _name, value in inspect.getmembers(module)
        if isinstance(value, Placement)
    ]
    if not graphs:
        raise TypeError(
            f"module {module_name!r} defines no module-level FilterGraph; "
            f"name a builder with {module_name}:attr"
        )
    shared = placements[0] if len(placements) == 1 else None
    return [(graph, shared) for graph in graphs]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QueryService, SceneSpec, run_server

    scene = SceneSpec(
        "default",
        grid=args.grid,
        timesteps=args.timesteps,
        seed=args.seed,
        isovalue=args.isovalue,
    )
    service = QueryService(
        scenes=[scene],
        config=args.config,
        algorithm=args.algorithm,
        width=args.image,
        height=args.image,
        policy=args.policy,
        copies=args.copies,
        max_inflight=args.max_inflight,
        pool_idle_timeout=args.idle_timeout,
        cache_mb=args.cache_mb,
    )
    try:
        run_server(
            service,
            host=args.host,
            port=args.port,
            admission_limit=args.admission,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.tracing import Tracer

    try:
        tracer = Tracer.from_jsonl(args.file)
    except OSError as exc:
        print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if tracer.clock:
        print(f"clock: {tracer.clock}")
    print(tracer.report(width=args.width))
    return 0


def _strip_width(text: str) -> int:
    width = int(text)
    if width < 1:
        raise argparse.ArgumentTypeError("width must be >= 1")
    return width


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DataCutter transparent-copies reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("names", nargs="*",
                       help="modules of repro.experiments (default: the paper's "
                            "tables and figures; an unknown name lists them all)")
    p_exp.add_argument("--scale", type=float, default=None, help="dataset scale")
    p_exp.set_defaults(func=_cmd_experiments)

    p_render = sub.add_parser("render", help="render a real isosurface")
    p_render.add_argument("--engine", default="threaded",
                          choices=["threaded", "process"],
                          help="threads in-process, or one OS process per "
                               "copy (real multicore parallelism)")
    p_render.add_argument("--grid", type=int, default=33, help="grid points per axis")
    p_render.add_argument("--image", type=int, default=256, help="image size (pixels)")
    p_render.add_argument("--config", default="RE-Ra-M",
                          choices=CONFIGURATIONS)
    p_render.add_argument("--algorithm", default="active", choices=ALGORITHMS)
    p_render.add_argument("--policy", default="DD", choices=POLICIES)
    p_render.add_argument("--copies", type=int, default=2,
                          help="raster copies per host")
    p_render.add_argument("--isovalue", type=float, default=0.3)
    p_render.add_argument("--timestep", type=int, default=0)
    p_render.add_argument("--chunks", type=int, default=27)
    p_render.add_argument("--files", type=int, default=8)
    p_render.add_argument("--seed", type=int, default=7)
    p_render.add_argument("--out", default="render.ppm")
    p_render.add_argument("--trace", action="store_true",
                          help="print a per-copy activity timeline")
    p_render.add_argument("--trace-out", default=None, metavar="FILE",
                          help="export the trace as JSONL (see 'repro trace')")
    p_render.set_defaults(func=_cmd_render)

    p_sim = sub.add_parser("simulate", help="run one simulated scenario")
    p_sim.add_argument("--dataset", default="25gb", choices=["1.5gb", "25gb"])
    p_sim.add_argument("--scale", type=float, default=0.02)
    p_sim.add_argument("--rogue", type=int, default=4, help="Rogue nodes")
    p_sim.add_argument("--blue", type=int, default=4, help="Blue nodes")
    p_sim.add_argument("--bg-jobs", type=int, default=0,
                       help="background jobs per Rogue node")
    p_sim.add_argument("--config", default="RE-Ra-M",
                       choices=CONFIGURATIONS)
    p_sim.add_argument("--algorithm", default="active", choices=ALGORITHMS)
    p_sim.add_argument("--policy", default="DD", choices=POLICIES)
    p_sim.add_argument("--image", type=int, default=2048)
    p_sim.add_argument("--trace", action="store_true",
                       help="print a per-copy activity timeline")
    p_sim.add_argument("--trace-out", default=None, metavar="FILE",
                       help="export the trace as JSONL (see 'repro trace')")
    p_sim.set_defaults(func=_cmd_simulate)

    p_lint = sub.add_parser(
        "lint",
        help="statically verify pipeline definitions with the engine gate",
    )
    p_lint.add_argument(
        "--graph-module", default=None, metavar="MOD[:ATTR]",
        help="import MOD and verify its FilterGraph/Placement objects "
             "(ATTR may be a graph or a zero-arg builder)",
    )
    p_lint.add_argument("--format", default="text", choices=["text", "json"],
                        help="diagnostic output format")
    p_lint.add_argument("--policy", default="DD", choices=POLICIES,
                        help="writer policy assumed for flow-control rules")
    p_lint.add_argument("--queue-capacity", type=int, default=8,
                        help="queue bound assumed for flow-control rules")
    p_lint.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the warm-pool isosurface query service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--grid", type=int, default=33,
                         help="grid points per axis of the served scene")
    p_serve.add_argument("--timesteps", type=int, default=3,
                         help="timesteps generated for the served scene")
    p_serve.add_argument("--image", type=int, default=256,
                         help="default frame size (pixels)")
    p_serve.add_argument("--config", default="RE-Ra-M",
                         choices=CONFIGURATIONS)
    p_serve.add_argument("--algorithm", default="active", choices=ALGORITHMS)
    p_serve.add_argument("--policy", default="DD", choices=POLICIES)
    p_serve.add_argument("--copies", type=int, default=2,
                         help="raster copies per host")
    p_serve.add_argument("--isovalue", type=float, default=0.35,
                         help="default isovalue (queries may override)")
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--max-inflight", type=int, default=2,
                         help="queries pipelining through one pool")
    p_serve.add_argument("--admission", type=int, default=8,
                         help="concurrent queries admitted before rejecting")
    p_serve.add_argument("--cache-mb", type=float, default=0.0,
                         help="result-cache budget in MiB (0 disables "
                              "caching; see repro.cache)")
    p_serve.add_argument("--idle-timeout", type=float, default=300.0,
                         help="seconds before an idle pool is reaped")
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="render a timeline from an exported JSONL trace"
    )
    p_trace.add_argument("file", help="JSONL trace written with --trace-out")
    p_trace.add_argument("--width", type=_strip_width, default=64,
                         help="timeline strip width (characters)")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Bad input is a message, not a traceback.
        print(f"cannot {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
