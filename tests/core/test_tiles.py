"""Unit tests for the tile map: geometry, and construction refusing non-partitions."""

import pytest

from repro.core.tiles import Tile, TileMap
from repro.errors import ConfigurationError


# -- construction ------------------------------------------------------------


def test_ctor_rejects_bad_dimensions_and_empty_maps():
    with pytest.raises(ConfigurationError, match="dimensions"):
        TileMap(0, 8, [Tile(0, 0, 0, 1, 1, 0)])
    with pytest.raises(ConfigurationError, match="at least one tile"):
        TileMap(8, 8, [])
    with pytest.raises(ConfigurationError, match="index order"):
        TileMap(8, 8, [Tile(1, 0, 0, 8, 8, 0)])


def test_tile_geometry_properties():
    tile = Tile(0, 2, 1, 7, 4, 0)
    assert tile.width == 5
    assert tile.height == 3
    assert tile.pixels == 15
    assert "owner=0" in repr(tile)


def test_hand_built_partition_is_accepted():
    tmap = TileMap(4, 4, [Tile(0, 0, 0, 4, 1, 0), Tile(1, 0, 1, 4, 4, 1)])
    assert tmap.n_owners == 2
    assert [t.pixels for t in tmap.tiles] == [4, 12]


# -- construction refuses every non-partition, naming the problem ------------


def test_problems_empty_area_and_bounds():
    with pytest.raises(ConfigurationError, match="non-positive area") as info:
        TileMap(4, 4, [Tile(0, 0, 0, 4, 0, 0), Tile(1, 0, 0, 4, 6, 0)])
    assert "tile 1 exceeds the 4x4 viewport" in str(info.value)


def test_problems_gap_overlap_and_owner_holes():
    cases = {
        "8 of 16 pixels are covered by no tile": [Tile(0, 0, 0, 4, 2, 0)],
        "4 pixels are covered by multiple tiles": [
            Tile(0, 0, 0, 4, 3, 0), Tile(1, 0, 2, 4, 4, 1),
        ],
        "owner indices are not contiguous: [1] own no tile": [
            Tile(0, 0, 0, 4, 2, 0), Tile(1, 0, 2, 4, 4, 2),
        ],
        "tile 0 exceeds the 4x4 viewport": [Tile(0, 0, 0, 5, 4, 0)],
        "tile 0 has negative owner -1": [Tile(0, 0, 0, 4, 4, -1)],
    }
    for problem, tiles in cases.items():
        with pytest.raises(ConfigurationError) as info:
            TileMap(4, 4, tiles)
        message = str(info.value)
        assert message.startswith("tiles do not partition the 4x4 viewport: ")
        assert problem in message


def test_every_problem_is_named():
    # Overlap + an owner hole: one refusal naming both.
    with pytest.raises(ConfigurationError) as info:
        TileMap(8, 8, [Tile(0, 0, 0, 8, 8, 0), Tile(1, 0, 0, 8, 8, 2)])
    message = str(info.value)
    assert "covered by multiple tiles" in message
    assert "not contiguous" in message


# -- the grid factory --------------------------------------------------------


def test_rows_partitions_exactly():
    tmap = TileMap.grid(16, 16, 1, 4)  # four row bands
    assert len(tmap.tiles) == 4
    assert tmap.n_owners == 4
    assert [t.owner for t in tmap.tiles] == [0, 1, 2, 3]
    assert sum(t.pixels for t in tmap.tiles) == 16 * 16


def test_rows_non_divisible_viewport_covers_every_pixel():
    # 7 row bands over a height of 16: bands of 2 and 3 rows, no gaps.
    tmap = TileMap.grid(5, 16, 1, 7)
    heights = [t.height for t in tmap.tiles]
    assert sum(heights) == 16
    assert set(heights) == {2, 3}


def test_rows_validates_counts():
    with pytest.raises(ConfigurationError, match="tiles_y <= height"):
        TileMap.grid(8, 4, 1, 5)
    with pytest.raises(ConfigurationError, match="tiles_x <= width"):
        TileMap.grid(8, 4, 0, 1)


def test_grid_raster_order_and_coverage():
    tmap = TileMap.grid(10, 6, 3, 2)
    assert len(tmap.tiles) == 6
    # Raster order: the second row of tiles starts at index 3.
    assert tmap.tiles[3].y0 == 3
    assert sum(t.pixels for t in tmap.tiles) == 60


def test_one_by_one_viewport_and_tiles():
    tmap = TileMap.grid(1, 1, 1, 1)
    assert tmap.tiles[0].pixels == 1
    grid = TileMap.grid(2, 2, 2, 2)  # four 1x1 tiles
    assert all(t.pixels == 1 for t in grid.tiles)


def test_repr_mentions_shape_and_owners():
    assert "8x4" in repr(TileMap.grid(8, 4, 1, 2))
