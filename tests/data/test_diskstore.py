"""Tests for the on-disk declustered store."""

import os

import numpy as np
import pytest

from repro.data import DeclusteredStore, HostDisks, ParSSimDataset, StorageMap
from repro.errors import DataError
from repro.viz.profile import DatasetProfile


@pytest.fixture(scope="module")
def source():
    dataset = ParSSimDataset((17, 17, 17), timesteps=2, species=2, seed=8)
    profile = DatasetProfile.measured("disk", dataset, 8, 4, isovalue=0.35)
    return dataset, profile


def test_write_and_open_roundtrip(source, tmp_path):
    dataset, profile = source
    store = DeclusteredStore.write(dataset, profile, tmp_path / "s")
    reopened = DeclusteredStore.open(tmp_path / "s")
    assert reopened.shape == dataset.shape
    assert reopened.timesteps == 2
    assert reopened.species == 2
    for t in range(2):
        for sp in range(2):
            for chunk in profile.chunks:
                np.testing.assert_array_equal(
                    reopened.chunk_field(chunk, t, sp),
                    dataset.chunk_field(chunk, t, sp),
                )
    assert store.total_bytes() == reopened.total_bytes() > 0


def test_full_field_reassembly(source, tmp_path):
    dataset, profile = source
    store = DeclusteredStore.write(dataset, profile, tmp_path / "f")
    np.testing.assert_array_equal(store.field(1, 0), dataset.field(1, 0))


def test_file_count_matches_declustering(source, tmp_path):
    dataset, profile = source
    DeclusteredStore.write(dataset, profile, tmp_path / "c")
    bins = list((tmp_path / "c").glob("*.bin"))
    # files x timesteps x species
    assert len(bins) == len(profile.files) * 2 * 2


def test_open_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        DeclusteredStore.open(tmp_path)


def test_bad_version_rejected(source, tmp_path):
    import json

    dataset, profile = source
    DeclusteredStore.write(dataset, profile, tmp_path / "v")
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    manifest["version"] = 99
    (tmp_path / "v" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="version"):
        DeclusteredStore.open(tmp_path / "v")


def test_version_1_store_is_refused(source, tmp_path):
    """A manifest without value ranges is not read as if it had them."""
    import json

    dataset, profile = source
    DeclusteredStore.write(dataset, profile, tmp_path / "v1")
    path = tmp_path / "v1" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["version"] == 2
    del manifest["ranges"]
    manifest["version"] = 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="unsupported store version 1"):
        DeclusteredStore.open(tmp_path / "v1")


def test_range_checks(source, tmp_path):
    dataset, profile = source
    store = DeclusteredStore.write(dataset, profile, tmp_path / "r")
    chunk = profile.chunks[0]
    with pytest.raises(DataError):
        store.chunk_field(chunk, 9, 0)
    with pytest.raises(DataError):
        store.chunk_field(chunk, 0, 9)
    bogus = type(chunk)(999, (0, 0, 0), (0, 0, 0), (2, 2, 2))
    with pytest.raises(DataError, match="unknown chunk"):
        store.chunk_field(bogus, 0, 0)
    # the value-range index takes the same arguments and checks them alike
    with pytest.raises(DataError, match="timestep -1"):
        store.chunk_range(chunk, -1, 0)
    with pytest.raises(DataError, match="species 9"):
        store.chunk_range(chunk, 0, 9)
    with pytest.raises(DataError, match="unknown chunk"):
        store.chunk_range(bogus, 0, 0)


@pytest.mark.parametrize(
    "subset",
    [{}, {"timesteps": [1], "species": [1]}, {"timesteps": [1, 0]}],
    ids=["whole", "one-field", "reordered-timesteps"],
)
def test_value_ranges_are_those_of_the_chunks(source, tmp_path, subset):
    """The manifest holds every chunk's (min, max), under the store-local
    (timestep, species) its file is named by — also when the store was
    written from a subset, and in what a later ``open`` reads back."""
    dataset, profile = source
    written = DeclusteredStore.write(dataset, profile, tmp_path / "r", **subset)
    reopened = DeclusteredStore.open(tmp_path / "r")
    steps = subset.get("timesteps", range(dataset.timesteps))
    specs = subset.get("species", range(dataset.species))
    assert (written.timesteps, written.species) == (len(steps), len(specs))
    seen = set()
    for local_t, t in enumerate(steps):
        for local_sp, sp in enumerate(specs):
            for chunk in profile.chunks:
                scalars = dataset.chunk_field(chunk, t, sp)
                expected = (float(scalars.min()), float(scalars.max()))
                for store in (written, reopened):
                    assert store.chunk_range(chunk, local_t, local_sp) == expected
                    stored = store.chunk_field(chunk, local_t, local_sp)
                    assert (float(stored.min()), float(stored.max())) == expected
                seen.add(expected)
    # every (timestep, species, chunk) has a range of its own here, so one
    # filed under another's index would have failed above
    assert len(seen) == len(steps) * len(specs) * len(profile.chunks)


def test_value_ranges_keep_nan_and_infinity(tmp_path):
    """A NaN sample makes its chunk's range NaN (which rules nothing out),
    an infinite one is a bound like any other; both survive the manifest."""
    from repro.viz.marching_cubes import range_excludes

    dataset = ParSSimDataset((9, 9, 9), timesteps=1, species=1, seed=8)
    profile = DatasetProfile.measured("odd", dataset, 8, 2, isovalue=0.35)
    poisoned = {0: np.nan, 1: np.inf, 2: -np.inf}

    class Poisoned:
        shape, timesteps, species = dataset.shape, 1, 1

        def chunk_field(self, chunk, timestep, species=0):
            scalars = dataset.chunk_field(chunk, timestep, species).copy()
            if chunk.chunk_id in poisoned:
                scalars[0, 0, 0] = poisoned[chunk.chunk_id]
            return scalars

    DeclusteredStore.write(Poisoned(), profile, tmp_path / "odd")
    store = DeclusteredStore.open(tmp_path / "odd")
    by_id = {chunk.chunk_id: chunk for chunk in profile.chunks}
    lo, hi = store.chunk_range(by_id[0], 0)
    assert np.isnan(lo) and np.isnan(hi)
    assert not range_excludes((lo, hi), 1e9)
    assert store.chunk_range(by_id[1], 0)[1] == np.inf
    assert not range_excludes(store.chunk_range(by_id[1], 0), 1e9)
    assert store.chunk_range(by_id[2], 0)[0] == -np.inf
    assert range_excludes(store.chunk_range(by_id[2], 0), 1e9)
    assert range_excludes(store.chunk_range(by_id[3], 0), 1e9)


def test_pipeline_renders_from_disk(source, tmp_path):
    """The threaded Read filter streams chunks from real files and the
    image matches the in-memory render exactly."""
    from repro.engines import ThreadedEngine
    from repro.viz import IsosurfaceApp

    dataset, profile = source
    store = DeclusteredStore.write(dataset, profile, tmp_path / "p")
    storage = StorageMap.balanced(profile.files, [HostDisks("h0")])

    def render(src):
        app = IsosurfaceApp(
            profile, storage, width=48, height=48, algorithm="active",
            dataset=src, isovalue=0.35,
        )
        return ThreadedEngine(
            app.graph("R-E-Ra-M"), app.placement("R-E-Ra-M")
        ).run().result.image

    np.testing.assert_array_equal(render(store), render(dataset))


def test_subset_write(source, tmp_path):
    dataset, profile = source
    store = DeclusteredStore.write(
        dataset, profile, tmp_path / "sub", timesteps=[1], species=[0]
    )
    assert store.timesteps == 1 and store.species == 1
    np.testing.assert_array_equal(
        store.chunk_field(profile.chunks[0], 0, 0),
        dataset.chunk_field(profile.chunks[0], 1, 0),
    )
    with pytest.raises(DataError):
        DeclusteredStore.write(dataset, profile, tmp_path / "e", timesteps=[])


def _mapped_under(directory):
    """Paths under ``directory`` that this process has mapped right now."""
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if str(directory) in line})


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_close_unmaps_the_store_files(source, tmp_path):
    dataset, profile = source
    store = DeclusteredStore.write(dataset, profile, tmp_path / "c")
    total = sum(
        float(store.chunk_field(chunk, 1, 0).sum()) for chunk in profile.chunks
    )
    assert len(_mapped_under(store.directory)) == len(profile.files)
    store.close()
    assert _mapped_under(store.directory) == []
    # the handle maps again on the next read
    again = sum(
        float(store.chunk_field(chunk, 1, 0).sum()) for chunk in profile.chunks
    )
    assert again == total
    held = store.chunk_field(profile.chunks[0], 0, 0)
    store.close()
    # a chunk the caller still holds keeps its own file mapped, and valid
    assert len(_mapped_under(store.directory)) == 1
    np.testing.assert_array_equal(
        held, dataset.chunk_field(profile.chunks[0], 0, 0)
    )
