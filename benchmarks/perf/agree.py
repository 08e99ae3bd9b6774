"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python benchmarks/perf/agree.py A.json B.json

A result set is what ``run.py`` writes to ``out/results-<label>.json``.
For every workload and end-to-end metric this takes the median over each
set's untraced runs and prints one row: both medians, the change of B
relative to A in the metric's *worse* direction, and the declared bound.
It exits non-zero when any change exceeds its bound or when B's share of
failed operations is above A's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def medians(path: str) -> "tuple[dict, dict]":
    """({(workload, metric): median}, {workload: failed ratio}) of a set."""
    runs = [
        run for run in json.loads(Path(path).read_text())["runs"]
        if not run["trace"]
    ]
    samples: dict = {}
    attempted: dict = {}
    failed: dict = {}
    for run in runs:
        workload = run["workload"]
        attempted[workload] = attempted.get(workload, 0) + run["attempted"]
        failed[workload] = failed.get(workload, 0) + run["failed"]
        for name, metric in run["metrics"].items():
            samples.setdefault((workload, name), []).append(metric["value"])
    return (
        {key: statistics.median(values) for key, values in samples.items()},
        {w: failed[w] / attempted[w] for w in attempted},
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, first_failed = medians(argv[0])
    second, second_failed = medians(argv[1])
    breaches = 0
    print(
        f"{'workload':<16}{'metric':<20}{'A':>12}{'B':>12}"
        f"{'worse by':>10}{'bound':>8}"
    )
    workloads = [w["name"] for w in declared["workloads"]]
    # then the workloads that run by hand only, if the sets hold them
    workloads += sorted({w for w, _metric in first} - set(workloads))
    for workload in workloads:
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            if key not in first or key not in second:
                print(f"{workload:<16}{metric['name']:<20} missing from a set")
                breaches += 1
                continue
            a, b = first[key], second[key]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            breach = worse > metric["bound"]
            breaches += breach
            print(
                f"{workload:<16}{metric['name']:<20}{a:>12.4f}{b:>12.4f}"
                f"{worse:>+10.2%}{metric['bound']:>8.0%}"
                f"{'  BREACH' if breach else ''}"
            )
        a, b = first_failed.get(workload, 0.0), second_failed.get(workload, 0.0)
        breach = b > a
        breaches += breach
        print(
            f"{workload:<16}{'failed_ratio':<20}{a:>12.4f}{b:>12.4f}"
            f"{'':>10}{'0%':>8}{'  BREACH' if breach else ''}"
        )
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
