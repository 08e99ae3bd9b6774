"""Every optional ``FilterSpec`` metadata field is declared by a shipped pipeline.

The verifier reads what pipelines declare, so a metadata field (and the
rules over it) that no shipped graph ever sets has nothing to check: four
such fields fed six rules that only their own fixtures ever fired.  This
census is what stops a fifth from arriving without a pipeline that
declares it.
"""

import dataclasses
import importlib
from pathlib import Path

from repro.configurations import ALGORITHMS, CONFIGURATIONS
from repro.core.graph import FilterSpec
from repro.data import HostDisks, StorageMap
from repro.viz import IsosurfaceApp
from repro.viz.partitioned import build_partitioned_graph
from repro.viz.profile import DatasetProfile

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: What makes a spec a node of the graph; every other field is optional
#: static metadata for the analysis layer.
STRUCTURAL = {"name", "factory", "sim_factory", "is_source", "inputs", "outputs"}


def shipped_graphs():
    profile = DatasetProfile.synthetic(
        "census", (16, 16, 16), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=500,
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])
    for algorithm in ALGORITHMS:
        app = IsosurfaceApp(
            profile, storage, width=32, height=32, algorithm=algorithm,
        )
        for configuration in CONFIGURATIONS:
            yield app.graph(configuration)
    yield build_partitioned_graph(
        profile, storage, timestep=0, width=32, height=32, regions=2
    )
    for graph, _placement in importlib.import_module("deep_lint_targets").targets():
        yield graph


def test_every_metadata_field_is_declared_by_a_shipped_graph(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES))
    metadata = {
        f.name: f.default
        for f in dataclasses.fields(FilterSpec)
        if f.name not in STRUCTURAL
    }
    graphs = list(shipped_graphs())
    assert len(graphs) == 8 + 1 + 6
    declared = {
        name
        for graph in graphs
        for spec in graph.filters.values()
        for name, default in metadata.items()
        if getattr(spec, name) != default
    }
    assert declared == set(metadata), (
        f"no shipped pipeline declares {sorted(set(metadata) - declared)}"
    )
