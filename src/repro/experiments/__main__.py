"""``python -m repro.experiments [NAME ...] [--scale S] [--charts]
[--extensions]`` is ``repro experiments``: see :mod:`repro.cli`."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["experiments", *sys.argv[1:]]))
