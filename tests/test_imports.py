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


def test_experiments_load_no_cli_or_serve_and_serve_loads_no_viz():
    # The experiments registry loads its modules lazily, and the server
    # keeps its import small: only figure2a imports repro.serve.
    src = str(Path(repro.__file__).resolve().parents[1])

    def loaded(module: str) -> set[str]:
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print(' '.join(sys.modules))"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    experiments = loaded("repro.experiments")
    assert not experiments & {"repro.cli", "repro.serve"}
    assert not {m for m in loaded("repro.serve") if m.startswith("repro.viz")}
