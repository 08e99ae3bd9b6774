"""Tests for the synthetic ParSSim-like dataset generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunks import ChunkSpec, partition_grid
from repro.data.parssim import ParSSimDataset
from repro.errors import DataError


def small():
    return ParSSimDataset((17, 17, 17), timesteps=4, species=2, seed=42)


def test_field_shape_and_dtype():
    ds = small()
    f = ds.field(0, 0)
    assert f.shape == (17, 17, 17)
    assert f.dtype == np.float32


def test_values_positive_and_bounded():
    ds = small()
    f = ds.field(1, 1)
    assert f.min() >= 0.0
    assert f.max() < 10.0
    assert f.max() > 0.01  # plumes actually present


def test_deterministic_given_seed():
    a = ParSSimDataset((9, 9, 9), seed=7).field(3, 2)
    b = ParSSimDataset((9, 9, 9), seed=7).field(3, 2)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = ParSSimDataset((9, 9, 9), seed=1).field(0, 0)
    b = ParSSimDataset((9, 9, 9), seed=2).field(0, 0)
    assert not np.array_equal(a, b)


def test_field_evolves_over_time():
    ds = small()
    assert not np.array_equal(ds.field(0, 0), ds.field(3, 0))


def test_species_differ():
    ds = small()
    assert not np.array_equal(ds.field(0, 0), ds.field(0, 1))


def test_chunk_field_matches_full_field_slice():
    ds = small()
    chunks = partition_grid(ds.shape, (2, 2, 2), overlap=1)
    full = ds.field(2, 1)
    for chunk in chunks:
        sub = ds.chunk_field(chunk, 2, 1)
        np.testing.assert_array_equal(sub, full[chunk.slices()])


def test_size_accounting():
    ds = ParSSimDataset((10, 10, 10), timesteps=3, species=2)
    assert ds.points_per_field == 1000
    assert ds.bytes_per_field == 4000
    assert ds.total_bytes == 4000 * 3 * 2


def test_bad_arguments():
    with pytest.raises(DataError):
        ParSSimDataset((1, 10, 10))
    with pytest.raises(DataError):
        ParSSimDataset((10, 10, 10), timesteps=0)
    ds = small()
    with pytest.raises(DataError):
        ds.field(99, 0)
    with pytest.raises(DataError):
        ds.field(0, 99)


def test_mass_roughly_conserved_over_time():
    # Dispersion spreads plumes but total mass (field integral) should stay
    # within a factor ~2 across the stored window (plumes may partially
    # advect out of the domain).
    ds = ParSSimDataset((33, 33, 33), timesteps=8, seed=3)
    m0 = float(ds.field(0, 0).sum())
    m7 = float(ds.field(7, 0).sum())
    assert 0.3 * m0 < m7 < 2.0 * m0


def reference_field(ds, timestep, species, start, stop):
    """The generator as one expression per plume, the executable definition
    of the bits ``field`` and ``chunk_field`` must return."""
    z, y, x = (
        np.linspace(0.0, 1.0, n, dtype=np.float64)[a:b]
        for n, a, b in zip(ds.shape, start, stop)
    )
    z, y, x = z[:, None, None], y[None, :, None], x[None, None, :]
    total = np.zeros(np.broadcast_shapes(z.shape, y.shape, x.shape))
    for plume in ds._plumes[species]:
        cz, cy, cx = (
            plume.center[i] + plume.velocity[i] * timestep for i in range(3)
        )
        sigma = plume.sigma * plume.growth**timestep
        amp = plume.amplitude * (plume.sigma / sigma) ** 3
        r2 = (z - cz) ** 2 + (y - cy) ** 2 + (x - cx) ** 2
        total += amp * np.exp(-r2 / (2.0 * sigma**2))
    return total.astype(np.float32)


@st.composite
def fields_and_boxes(draw):
    shape = tuple(draw(st.integers(2, 24)) for _ in range(3))
    timesteps = draw(st.integers(1, 12))
    species = draw(st.integers(1, 4))
    ds = ParSSimDataset(
        shape, timesteps=timesteps, species=species,
        plumes_per_species=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    start, stop = [], []
    for n in shape:
        a = draw(st.integers(0, n - 1))
        start.append(a)
        stop.append(draw(st.integers(a + 1, n)))
    return (
        ds, draw(st.integers(0, timesteps - 1)), draw(st.integers(0, species - 1)),
        tuple(start), tuple(stop),
    )


@settings(max_examples=60, deadline=None)
@given(fields_and_boxes())
def test_field_and_chunks_equal_the_reference_bytes(case):
    ds, t, sp, start, stop = case
    full = ds.field(t, sp)
    assert full.tobytes() == reference_field(
        ds, t, sp, (0, 0, 0), ds.shape
    ).tobytes()
    chunk = ds.chunk_field(ChunkSpec(0, (0, 0, 0), start, stop), t, sp)
    assert chunk.dtype == np.float32 and chunk.flags.c_contiguous
    assert chunk.tobytes() == reference_field(ds, t, sp, start, stop).tobytes()


def test_chunk_field_holds_two_float64_fields_at_most():
    # Each plume's term is evaluated in place into one preallocated array
    # and added into the total, so a chunk costs the total, the term and
    # the float32 result it returns (tracemalloc sees NumPy's allocations).
    ds = ParSSimDataset((129, 129, 129), timesteps=10, species=1, seed=2002)
    chunk = partition_grid(ds.shape, (4, 4, 4), overlap=1)[21]
    assert chunk.shape == (33, 33, 33)
    ds.chunk_field(chunk, 5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        scalars = ds.chunk_field(chunk, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scalars.shape == chunk.shape
    bound = 2 * 8 * chunk.points + 4 * chunk.points + 16 * 1024
    assert peak <= bound, (peak, bound)
