"""A forked copy pins its own allocator (``process.pin_allocator``).

Without the pin, a copy's page faults per query follow the glibc heap state
of whoever forked it: a worst-case parent (both thresholds at 128 KiB, set
through glibc's environment variables) makes every megabyte temporary a
fresh mapping, faulted in page by page on every query.  Each test forks its
engine from a subprocess started under that environment and bounds the
children's minor faults; the bounds state the readings before and after.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.engines import process

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.exists("/proc/self/stat"),
    reason="needs the fork start method and /proc",
)

WORST_CASE = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}

#: The measured scene (S129, 512², copies 2) and ``count`` distinct queries.
SCENE = """
import json, resource
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.viz import IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.profile import DatasetProfile

SHAPE = (129, 129, 129)

def dataset():
    return ParSSimDataset(SHAPE, timesteps=4, species=1, seed=7)

def profile_of(dataset):
    return DatasetProfile.measured(
        "S129", dataset, nchunks=64, nfiles=8, isovalue=0.35)

def pipeline(profile, dataset, config, algorithm):
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    app = IsosurfaceApp(profile, storage, width=512, height=512,
                        algorithm=algorithm, dataset=dataset, isovalue=0.35)
    return app.graph(config), app.placement(config, copies_per_host=2)

def uows(count):
    return [
        {"isovalue": 0.25 + 0.25 * ((7 * i) % count) / count, "timestep": i % 4,
         "camera": Camera.orbit(SHAPE, azimuth_deg=(137.5 * i) % 360,
                                elevation_deg=-30 + (53 * i) % 90,
                                width=512, height=512)}
        for i in range(count)
    ]
"""


def _run_worst_case(body: str, tmp_path: Path) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCENE + textwrap.dedent(body)],
        env={**os.environ, **WORST_CASE, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_warm_pool_from_a_worst_case_parent_stays_under_100_faults_a_query(tmp_path):
    """R-E-Ra-M z-buffer: 4 warm-ups, then 16 distinct queries one at a time.

    Without the pin, E, Ra and M read 800–4,000 minor faults per query
    each (and R 7k–15k); with it, every worker reads 0.2–55.
    """
    per_query = _run_worst_case(
        """
        from repro.engines.pool import WarmPool

        def minflt(pid):
            with open(f"/proc/{pid}/stat") as fh:
                return int(fh.read().rsplit(")", 1)[1].split()[7])

        data = dataset()
        graph, placement = pipeline(profile_of(data), data, "R-E-Ra-M", "zbuffer")
        queries = uows(20)
        with WarmPool(graph, placement, policy="DD") as pool:
            for uow in queries[:4]:
                pool.run_cycles([uow])
            procs = list(pool._copies.procs.values())
            before = [minflt(proc.pid) for proc in procs]
            for uow in queries[4:]:
                pool.run_cycles([uow])
            after = [minflt(proc.pid) for proc in procs]
        print(json.dumps({
            proc.name: (a - b) / 16 for proc, b, a in zip(procs, before, after)
        }))
        """,
        tmp_path,
    )
    assert len(per_query) == 6
    assert max(per_query.values()) <= 100, per_query


def test_a_cold_batch_job_from_a_worst_case_parent_stays_under_20k_faults(tmp_path):
    """One RE-Ra-M active job over a stored S129, four timesteps.

    The children's minor faults read 41k–48k per operation without the
    pin, and 9.8k–10.5k with it (14k–18k and 10k under the default
    environment: most of what is left is fork's copy-on-write).
    """
    faults = _run_worst_case(
        """
        from repro.data import DeclusteredStore
        from repro.engines.process import ProcessEngine

        data = dataset()
        profile = profile_of(data)
        DeclusteredStore.write(data, profile, "store")
        graph, placement = pipeline(
            profile, DeclusteredStore.open("store"), "RE-Ra-M", "active")
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        ProcessEngine(graph, placement, policy="DD").run_cycles(uows(4))
        after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        print(json.dumps({"minflt": after - before}))
        """,
        tmp_path,
    )
    assert 0 < faults["minflt"] <= 20_000, faults


def test_pin_allocator_sets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(process.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    process.pin_allocator()
    assert sorted(calls) == [(-3, 32 << 20), (-1, 64 << 20)]


def test_pin_allocator_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(process.ctypes, "CDLL", lambda name: object())
    assert process.pin_allocator() is None
