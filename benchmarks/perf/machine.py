"""Facts about the machine and the checkout, recorded with every result."""

from __future__ import annotations

import multiprocessing
import os
import platform
import shutil
import subprocess
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[2]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_jiffies() -> "tuple[int, int]":
    """(stolen, total) CPU time of the whole machine so far, in jiffies.

    In a virtual machine *steal* is time the hypervisor gave to someone
    else while this guest wanted to run; a run with a large share of it
    measured the neighbours, not the program.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def facts(seed: int) -> dict:
    try:
        shm_mb = round(shutil.disk_usage("/dev/shm").total / 2**20)
    except OSError:
        shm_mb = None
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dev_shm_mb": shm_mb,
        # the engines fork (closure factories); the server is spawned fresh
        "start_method": "fork"
        if "fork" in multiprocessing.get_all_start_methods() else "unavailable",
        "commit": commit(),
        "seed": seed,
    }
