"""Tests for dataset profiles and the paper-scale presets."""

import numpy as np
import pytest

from repro.data import ParSSimDataset
from repro.errors import DataError
from repro.viz.marching_cubes import triangle_count
from repro.viz.profile import DatasetProfile, dataset_1p5gb, dataset_25gb


def test_synthetic_hits_triangle_total_exactly():
    profile = DatasetProfile.synthetic(
        "t", (33, 33, 33), nchunks=64, nfiles=16, timesteps=3,
        total_triangles=12_345, seed=1,
    )
    for t in range(3):
        assert profile.total_triangles(t) == 12_345


def test_synthetic_distribution_is_nonuniform_shell():
    profile = DatasetProfile.synthetic(
        "t", (33, 33, 33), nchunks=64, nfiles=16, timesteps=1,
        total_triangles=100_000, seed=2,
    )
    counts = profile.tri_counts[0]
    assert counts.max() > 3 * max(counts.min(), 1)  # concentrated on a shell
    assert (counts >= 0).all()


def test_synthetic_distribution_drifts_over_time():
    profile = DatasetProfile.synthetic(
        "t", (33, 33, 33), nchunks=64, nfiles=16, timesteps=5,
        total_triangles=50_000, seed=3,
    )
    assert not np.array_equal(profile.tri_counts[0], profile.tri_counts[4])


def test_synthetic_deterministic_by_seed():
    mk = lambda: DatasetProfile.synthetic(  # noqa: E731
        "t", (17, 17, 17), nchunks=8, nfiles=4, timesteps=2,
        total_triangles=1000, seed=9,
    )
    a, b = mk(), mk()
    for t in range(2):
        np.testing.assert_array_equal(a.tri_counts[t], b.tri_counts[t])


def test_measured_profile_matches_real_counts():
    dataset = ParSSimDataset((17, 17, 17), timesteps=2, seed=5)
    iso = 0.35
    profile = DatasetProfile.measured("m", dataset, 8, 4, isovalue=iso)
    for t in range(2):
        for chunk in profile.chunks:
            scalars = dataset.chunk_field(chunk, t, 0)
            assert profile.triangles(t, chunk.chunk_id) == triangle_count(
                scalars, iso
            )


def test_profile_validation():
    profile = DatasetProfile.synthetic(
        "t", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=100, seed=0,
    )
    with pytest.raises(DataError):
        DatasetProfile(
            "bad", (17, 17, 17), profile.chunks, profile.files, 1,
            {0: np.zeros(3, dtype=np.int64)},  # wrong length
        )
    with pytest.raises(DataError):
        DatasetProfile.synthetic(
            "t", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
            total_triangles=-1,
        )


def test_dataset_presets_full_scale_shapes():
    p15 = dataset_1p5gb(scale=1.0)
    # One field of the 1.5 GB dataset is ~37 MB of scalars (208^3 x 4 B).
    assert p15.grid_shape == (208, 208, 208)
    assert 35e6 < p15.bytes_per_timestep < 42e6
    assert len(p15.files) == 64
    assert p15.timesteps == 10

    p25 = dataset_25gb(scale=1.0)
    # A 25 GB dataset timestep is ~2.5 GB.
    assert 2.4e9 < p25.bytes_per_timestep < 3.0e9
    assert len(p25.chunks) == 24_576
    assert len(p25.files) == 64


def test_dataset_presets_scaling():
    full = dataset_1p5gb(scale=1.0)
    tenth = dataset_1p5gb(scale=0.1)
    ratio = tenth.bytes_per_timestep / full.bytes_per_timestep
    assert 0.05 < ratio < 0.2
    with pytest.raises(DataError):
        dataset_1p5gb(scale=0.0)
    with pytest.raises(DataError):
        dataset_25gb(scale=1.5)


def test_bytes_per_timestep_includes_ghosts():
    profile = DatasetProfile.synthetic(
        "t", (17, 17, 17), nchunks=8, nfiles=4, timesteps=1,
        total_triangles=10, seed=0,
    )
    raw = 17 * 17 * 17 * 4
    assert profile.bytes_per_timestep > raw  # ghost layers overlap
    assert profile.bytes_per_timestep < raw * 1.6


def test_layout_is_measured_without_the_census(tmp_path):
    """Same chunks, same files, byte-identical stores — a store write on a
    layout produces every (chunk, timestep) once — and no triangle counts:
    a simulator handed a layout fails instead of pricing zero triangles."""
    import filecmp

    from repro.data import DeclusteredStore

    dataset = ParSSimDataset((17, 17, 17), timesteps=3, species=2, seed=5)
    reads = []

    class Counting:
        shape, timesteps, species = dataset.shape, dataset.timesteps, dataset.species

        def chunk_field(self, chunk, timestep, species=0):
            reads.append((chunk.chunk_id, timestep, species))
            return dataset.chunk_field(chunk, timestep, species)

    measured = DatasetProfile.measured("m", dataset, 8, 4, isovalue=0.35)
    DeclusteredStore.write(dataset, measured, tmp_path / "measured", species=[0])
    layout = DatasetProfile.layout("m", dataset.shape, 3, 8, 4)
    store = DeclusteredStore.write(
        Counting(), layout, tmp_path / "layout", species=[0]
    )

    assert sorted(reads) == sorted(
        (chunk.chunk_id, t, 0) for t in range(3) for chunk in layout.chunks
    )
    assert layout.chunks == measured.chunks
    assert layout.files == measured.files
    assert (layout.grid_shape, layout.timesteps) == (dataset.shape, 3)
    names = sorted(p.name for p in (tmp_path / "measured").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "layout").iterdir())
    assert len(names) == 3 * 4 + 1  # timesteps x files, and the manifest
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "measured", tmp_path / "layout", names, shallow=False
    )
    assert (sorted(match), mismatch, errors) == (names, [], [])
    assert (store.timesteps, store.species) == (3, 1)
    assert layout.tri_counts is None
    with pytest.raises(DataError, match="is a layout"):
        layout.triangles(0, 0)
    with pytest.raises(DataError, match="is a layout"):
        layout.total_triangles(0)
