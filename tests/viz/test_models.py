"""Unit tests for the simulated cost models."""

import pytest

from repro.core.buffer import DataBuffer
from repro.core.fuse import fuse_models
from repro.errors import ConfigurationError
from repro.viz.active_pixel import WPA_ENTRY_BYTES
from repro.viz.filters import TRIANGLE_BYTES
from repro.viz.models import (
    BufferSizes,
    CostParams,
    ExtractModel,
    MergeModel,
    RasterAPModel,
    RasterZBModel,
    _emit_stream_buffers,
    _split_counts,
    raster_model,
)
from repro.viz.raster import ZBUFFER_ENTRY_BYTES


def test_split_counts_exact_total():
    for total in (0, 1, 7, 100, 12345):
        shares = _split_counts(total, [3, 5, 2])
        assert sum(shares) == total


def test_split_counts_proportionality():
    shares = _split_counts(100, [1, 1, 2])
    assert shares[2] == pytest.approx(50, abs=1)


def test_split_counts_zero_weights():
    assert sum(_split_counts(10, [0, 0])) == 10


def test_split_counts_more_weights_than_items():
    # Used to over-allocate by rounding every share up and hand the last
    # weight the (negative) difference: [1, 1, 1, 1, 1, 1, 1, -2].
    shares = _split_counts(5, [1] * 8)
    assert sum(shares) == 5
    assert min(shares) >= 0
    assert max(shares) == 1


def test_emit_stream_buffers_sizes_and_tags():
    bufs = _emit_stream_buffers(250, 100, triangles=25)
    assert [b.nbytes for b in bufs] == [100, 100, 50]
    assert sum(b.tags["triangles"] for b in bufs) == 25


def test_emit_stream_buffers_empty():
    assert _emit_stream_buffers(0, 100, triangles=0) == []


def test_cost_params_fragment_scaling():
    costs = CostParams(fragments_per_triangle_2048=10.0)
    assert costs.fragments_per_triangle(2048, 2048) == pytest.approx(10.0)
    assert costs.fragments_per_triangle(512, 512) == pytest.approx(10.0 / 16)


def test_buffer_sizes_validation():
    with pytest.raises(ConfigurationError):
        BufferSizes(read=0)


def test_extract_model_costs_and_outputs():
    costs = CostParams(extract_per_voxel=1e-6, extract_per_triangle=1e-5)
    model = ExtractModel(costs, BufferSizes(triangles=1024))
    buf = DataBuffer(5000, tags={"voxels": 1000, "triangles": 50})
    cost, emitted = model.step(model.unit_of(buf), 0.0)
    assert cost == pytest.approx(1000 * 1e-6 + 50 * 1e-5)
    outs = model.packets(emitted)
    assert sum(b.nbytes for b in outs) == 50 * TRIANGLE_BYTES
    assert sum(b.tags["triangles"] for b in outs) == 50


def test_raster_zb_model_flush_volume():
    model = RasterZBModel(CostParams(), BufferSizes(zbuffer_slab=1 << 20), 512, 512)
    assert model.step({"triangles": 5}, 0.0)[1] is None
    cost, emitted = model.flush_step(0.0)
    outs = model.packets(emitted)
    assert sum(b.nbytes for b in outs) == 512 * 512 * ZBUFFER_ENTRY_BYTES
    assert cost > 0


def test_raster_ap_model_streams_entries():
    costs = CostParams(fragments_per_triangle_2048=8.0, ap_entry_ratio=1.0)
    model = RasterAPModel(costs, BufferSizes(wpa=1 << 16), 2048, 2048)
    outs = model.packets(model.step({"triangles": 100}, 0.0)[1])
    assert sum(b.nbytes for b in outs) == 800 * WPA_ENTRY_BYTES
    assert model.flush_step(0.0) == (0.0, None)
    assert model.result() == {"triangles": 100}


def test_merge_model_cost_per_entry():
    costs = CostParams(merge_zb_per_entry=1e-6, merge_ap_per_entry=2e-6)
    zb = MergeModel(costs, "zbuffer")
    assert zb.step(zb.unit_of(DataBuffer(800)), 0.0)[0] == pytest.approx(100 * 1e-6)
    ap = MergeModel(costs, "active")
    assert ap.step(ap.unit_of(DataBuffer(120)), 0.0) == (pytest.approx(10 * 2e-6), None)
    assert ap.result()["buffers"] == 1
    with pytest.raises(ConfigurationError):
        MergeModel(costs, "wrong")


def test_extract_raster_model_zb_vs_ap():
    costs = CostParams()
    buffers = BufferSizes()
    def extract_raster(algorithm):
        return fuse_models(
            ExtractModel(costs, buffers),
            raster_model(algorithm, costs, buffers, 512, 512),
        )

    zb = extract_raster("zbuffer")
    ap = extract_raster("active")
    unit = {"voxels": 100, "triangles": 40}
    (zb_cost, zb_unit), (ap_cost, ap_unit) = zb.step(unit, 0.0), ap.step(unit, 0.0)
    # AP pays the per-entry cost on top of shared extract+raster work.
    assert ap_cost > zb_cost
    # ZB emits nothing until flush; AP emits immediately.
    assert zb_unit is None
    assert ap.packets(ap_unit) != []
    assert sum(b.nbytes for b in zb.packets(zb.flush_step(0.0)[1])) == 512 * 512 * 8
    assert ap.flush_step(0.0)[1] is None
    with pytest.raises(ConfigurationError):
        extract_raster("nope")


def test_untagged_buffer_costs_nothing():
    model = ExtractModel(CostParams(), BufferSizes())
    cost, emitted = model.step(model.unit_of(DataBuffer(100)), 0.0)
    assert cost == 0.0
    assert model.packets(emitted) == []
