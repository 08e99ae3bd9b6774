"""One benchmark for the whole system.

    python benchmarks/perf/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--quick]
                                  [--agree] [--runs N]

With ``--workload`` it runs that workload once — untraced (``--trace 0``,
the end-to-end metrics) or as the traced layer ladder (``--trace 1``, the
per-layer metrics) — prints every metric by name and unit, and ends with
one JSON line.  Without ``--workload`` it runs all five, each in a fresh
process, first untraced and then traced, and writes the result set to
``benchmarks/perf/out/``.  ``--agree`` makes two such sets and compares
them against the bounds in ``BENCHMARK.json`` (see ``agree.py``).
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark here")
sys.path.insert(0, str(ROOT / "src"))

import agree  # noqa: E402
import ladder  # noqa: E402
import machine  # noqa: E402
import reference  # noqa: E402
import rig  # noqa: E402
import scene as scenes  # noqa: E402
import workloads  # noqa: E402

#: interpreter start to "everything the workloads need is imported"
IMPORT_S = time.perf_counter() - T_PROCESS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Runs by hand and in result sets, but is not in ``BENCHMARK.json``: the
#: driver's time limit pays for four workloads of this length, not five.
EXTRA_WORKLOADS = ["batch_threaded"]
WORKLOADS = [w["name"] for w in DECLARED["workloads"]] + EXTRA_WORKLOADS
QUICK_OPS = {
    "serve_distinct": 10, "serve_zipf": 10, "batch_process": 2,
    "batch_threaded": 2, "sim_table4": 10,
}
FULL_SETUPS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def measure(name, scene, seed, seconds, max_ops, setups):
    """(what the workload measured, per-worker times of every burst)."""
    cpus = sorted(os.sched_getaffinity(0))
    if name == "sim_table4":
        # one thread: kept on one core, so that the reference times the
        # core the simulator runs on and not the mean of it and another
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    with reference.Reference(cpus) as ref:
        if name.startswith("serve_"):
            measured = workloads.serve(
                name, scene, seed, seconds, max_ops, setups, ref
            )
        elif name.startswith("batch_"):
            measured = workloads.batch(
                name, scene, seed, seconds, max_ops, setups, IMPORT_S, ref
            )
        else:
            measured = workloads.sim(
                scene, seed, seconds, max_ops, setups, IMPORT_S, ref
            )
        return measured, ref.log


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end(measured) -> dict:
    """The declared metrics, at reference machine speed (see reference.py).

    Every time is divided by its segment's speed factor — the reference
    bursts around the segment over their nominal duration — before the
    percentiles are taken; throughput is operations over the sum of the
    segments' adjusted wall times.  The same statistics of the raw
    times go to ``measured.facts``.
    """
    def at_reference_speed(seconds: float, reference_s: float) -> float:
        return seconds * reference.NOMINAL_S / reference_s

    raw_ms, adjusted_ms = [], []
    raw_wall = adjusted_wall = 0.0
    for segment in measured.segments:
        raw_wall += segment.wall_s
        adjusted_wall += at_reference_speed(segment.wall_s, segment.reference_s)
        for latency in segment.latencies_s:
            raw_ms.append(latency * 1e3)
            adjusted_ms.append(
                at_reference_speed(latency, segment.reference_s) * 1e3
            )
    bursts_ms = [segment.reference_s * 1e3 for segment in measured.segments]
    measured.facts.update(
        latency_samples=len(raw_ms),
        segments=len(measured.segments),
        measured_wall_s=round(raw_wall, 3),
        raw_ops_per_s=round(len(raw_ms) / raw_wall, 4),
        raw_op_latency_p50_ms=round(statistics.median(raw_ms), 3),
        raw_op_latency_p90_ms=round(percentile(raw_ms, 0.90), 3),
        raw_setup_s=round(
            statistics.median(seconds for seconds, _ in measured.setups), 4
        ),
        reference_burst_ms={
            "nominal": reference.NOMINAL_S * 1e3,
            "min": round(min(bursts_ms), 2),
            "median": round(statistics.median(bursts_ms), 2),
            "max": round(max(bursts_ms), 2),
        },
    )
    values = {
        "ops_per_s": len(adjusted_ms) / adjusted_wall,
        "op_latency_p50_ms": statistics.median(adjusted_ms),
        "op_latency_p90_ms": percentile(adjusted_ms, 0.90),
        "setup_s": statistics.median(
            at_reference_speed(seconds, reference_s)
            for seconds, reference_s in measured.setups
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in DECLARED["end_to_end"]
    }


def per_layer(values: dict) -> dict:
    """Every declared layer metric; 0 where this workload has no such layer."""
    unknown = set(values) - {m["name"] for m in DECLARED["per_layer"]}
    if unknown:
        raise SystemExit(f"ladder produced undeclared metrics: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in DECLARED["per_layer"]
    }


def run_workload(name: str, args) -> dict:
    scene = scenes.S33 if args.quick else scenes.S129
    max_ops = QUICK_OPS[name] if args.quick else None
    result = {
        "workload": name,
        "trace": args.trace,
        "scene": scene.name,
        "machine": machine.facts(args.seed),
    }
    stolen0, total0 = machine.cpu_jiffies()
    if args.trace:
        traced = ladder.run(name, scene, args.seed, quick=args.quick)
        result.update(
            attempted=traced.attempted, failed=traced.failed,
            problems=traced.problems, facts=traced.facts,
            applies=sorted(traced.values),
            metrics=per_layer(traced.values),
        )
    else:
        measured, bursts = measure(
            name, scene, args.seed, args.seconds, max_ops,
            setups=1 if args.quick else FULL_SETUPS,
        )
        if not any(segment.latencies_s for segment in measured.segments):
            raise SystemExit(
                f"{name}: no operation succeeded: {measured.problems[:3]}"
            )
        result.update(
            attempted=measured.attempted, failed=measured.failed,
            problems=measured.problems, metrics=end_to_end(measured),
            facts=measured.facts,
        )
        rig.OUT.mkdir(exist_ok=True)
        (rig.OUT / f"segments-{name}.json").write_text(
            json.dumps(
                {
                    "segments": [
                        dataclasses.asdict(s) for s in measured.segments
                    ],
                    "bursts": bursts,
                }
            )
        )
    stolen1, total1 = machine.cpu_jiffies()
    result["facts"]["cpu_steal_share"] = round(
        (stolen1 - stolen0) / max(total1 - total0, 1), 4
    )
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def print_result(result: dict) -> None:
    facts = result["machine"]
    print(
        f"== {result['workload']}  scene={result['scene']} "
        f"trace={result['trace']} seed={facts['seed']}"
    )
    print(
        f"   machine: {facts['nproc']} x {facts['cpu_model']}, python "
        f"{facts['python']}, numpy {facts['numpy']}, /dev/shm "
        f"{facts['dev_shm_mb']} MB, start method {facts['start_method']}, "
        f"commit {facts['commit']}"
    )
    applies = result.get("applies")
    for name, metric in result["metrics"].items():
        if applies is not None and name not in applies:
            continue
        print(f"   {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    if applies is not None:
        idle = [name for name in result["metrics"] if name not in applies]
        print(f"   ({len(idle)} layer metrics do not apply here and read 0)")
    failed_ratio = result["failed"] / result["attempted"]
    print(
        f"   failed_ratio {failed_ratio:.4f} ratio "
        f"({result['failed']} of {result['attempted']} attempted)"
    )
    for key, value in result["facts"].items():
        print(f"   {key}: {value}")
    for problem in result["problems"][:10]:
        print(f"   PROBLEM: {problem}")


def result_path(name: str, trace: int) -> Path:
    return rig.OUT / f"last-{name}-trace{trace}.json"


def run_one(args) -> int:
    try:
        result = run_workload(args.workload, args)
    finally:
        rig.stop_resource_tracker()
    print_result(result)
    rig.OUT.mkdir(exist_ok=True)
    result_path(args.workload, args.trace).write_text(json.dumps(result, indent=1))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        ),
        flush=True,
    )
    return 0


def run_set(args, label: str) -> Path:
    """All workloads, ``--runs`` times, each run in a fresh process."""
    passes = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for repeat in range(args.runs):
        for name in WORKLOADS:
            for trace in passes:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed + repeat), "--trace", str(trace),
                    "--seconds", str(args.seconds),
                ] + (["--quick"] if args.quick else [])
                subprocess.run(command, check=True, stdout=sys.stderr)
                runs.append(json.loads(result_path(name, trace).read_text()))
    path = rig.OUT / f"results-{label}.json"
    path.write_text(json.dumps({"label": label, "runs": runs}, indent=1))
    print_ratio(runs)
    return path


def print_ratio(runs: list[dict]) -> None:
    """``batch_process`` over ``batch_threaded``, labelled with its base."""
    def median_of(workload: str) -> "float | None":
        values = [
            run["metrics"]["ops_per_s"]["value"] for run in runs
            if run["workload"] == workload and not run["trace"]
        ]
        return statistics.median(values) if values else None

    process, threaded = median_of("batch_process"), median_of("batch_threaded")
    if process is None or threaded is None:
        return
    nproc = runs[0]["machine"]["nproc"]
    verdict = "" if nproc >= 4 else f" [unverified: {nproc} cores < 4]"
    print(
        f"batch_process / batch_threaded ops_per_s = {process / threaded:.3f} "
        f"(base: batch_threaded {threaded:.4f} 1/s, batch_process "
        f"{process:.4f} 1/s){verdict}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=scenes.DEFAULT_SEED,
        help=f"workload seed (default {scenes.DEFAULT_SEED}; held out: "
        f"{scenes.HELD_OUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(DECLARED["run_seconds"]),
        help="length of the timed phase",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: 33^3 grid, 128^2 image, a handful of operations",
    )
    parser.add_argument(
        "--agree", action="store_true",
        help="make two result sets of all workloads and compare them",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="runs per workload in a result set (default 1, 3 with --agree)",
    )
    args = parser.parse_args()
    if args.workload:
        args.trace = args.trace or 0
        return run_one(args)
    rig.OUT.mkdir(exist_ok=True)
    if args.agree:
        args.runs = args.runs or 3
        args.trace = 0
        first = run_set(args, "A")
        second = run_set(args, "B")
        return agree.main([str(first), str(second)])
    args.runs = args.runs or 1
    path = run_set(args, "latest")
    print(f"result set written to {path}")
    runs = json.loads(path.read_text())["runs"]
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
