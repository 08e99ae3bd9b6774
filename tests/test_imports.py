"""What importing the package's entry points loads — a module-set guard."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = "repro.cli, repro.serve, repro.engines.process, repro.experiments"


def test_entry_points_load_neither_networkx_nor_scipy():
    code = (
        f"import sys, {ENTRY_POINTS}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
