"""Isosurface-rendering application: real filters, simulated cost models,
and the configuration builders used by every experiment."""

from repro.viz.active_pixel import (
    WPA_ENTRY_BYTES,
    ActivePixelMerger,
    ActivePixelRaster,
    WPABuffer,
)
from repro.viz.app import CONFIGURATIONS, IsosurfaceApp
from repro.viz.camera import Camera
from repro.viz.marching_cubes import extract_triangles, triangle_count
from repro.viz.models import BufferSizes, CostParams
from repro.viz.profile import DatasetProfile, dataset_1p5gb, dataset_25gb
from repro.viz.raster import ZBUFFER_ENTRY_BYTES, ZBuffer, ZBufferSlab
from repro.viz.shading import shade_triangles, triangle_normals
from repro.viz.tiled import TileGatherFilter, TileImage, TileMergeFilter, TileSlab

__all__ = [
    "ActivePixelMerger",
    "ActivePixelRaster",
    "BufferSizes",
    "CONFIGURATIONS",
    "Camera",
    "CostParams",
    "DatasetProfile",
    "IsosurfaceApp",
    "TileGatherFilter",
    "TileImage",
    "TileMergeFilter",
    "TileSlab",
    "WPABuffer",
    "WPA_ENTRY_BYTES",
    "ZBUFFER_ENTRY_BYTES",
    "ZBuffer",
    "ZBufferSlab",
    "dataset_1p5gb",
    "dataset_25gb",
    "extract_triangles",
    "shade_triangles",
    "triangle_count",
    "triangle_normals",
]
