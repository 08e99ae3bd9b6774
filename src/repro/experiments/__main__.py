"""Run the full evaluation section: every table and figure of the registry.

Usage::

    python -m repro.experiments [--charts] [--extensions]
"""

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.experiments.charts import bar_chart


def main(argv=None) -> int:
    """Print every experiment's table."""
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument(
        "--charts", action="store_true",
        help="render the figures as ASCII bar charts too",
    )
    parser.add_argument(
        "--extensions", action="store_true",
        help="also run the beyond-the-paper extension experiments",
    )
    args = parser.parse_args(argv)

    for experiment in EXPERIMENTS:
        if experiment.extension and not args.extensions:
            continue
        start = time.perf_counter()
        table = experiment.load().run()
        elapsed = time.perf_counter() - start
        print(table.format())
        if args.charts and experiment.chart is not None:
            value, labels, series = experiment.chart
            print()
            print(bar_chart(table, value, labels, series))
        print(f"[{experiment.title} regenerated in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
