import numpy as np
import pytest

from scenecomp.errors import OutOfBoundsError
from scenecomp.layout import (
    EMPTY,
    default_threshold,
    extract_layout,
    grid_to_world,
    layout_from_dict,
    layout_to_dict,
    place_blind_nodes,
)


def test_all_zero_all_empty():
    lg = extract_layout(np.zeros((3, 4, 4)), threshold=0.01)
    assert np.all(lg.cells == EMPTY)


def test_single_labeled_cell():
    heat = np.zeros((2, 4, 4))
    heat[1, 2, 3] = 1.0
    lg = extract_layout(heat, threshold=0.5)
    assert lg.cells[2, 3] == 1
    assert np.sum(lg.cells != EMPTY) == 1


def test_tie_breaks_to_lower_class():
    heat = np.zeros((3, 2, 2))
    heat[1, 0, 0] = 0.4
    heat[2, 0, 0] = 0.4
    lg = extract_layout(heat, threshold=0.1)
    assert lg.cells[0, 0] == 1


def test_threshold_is_inclusive():
    heat = np.zeros((1, 2, 2))
    heat[0, 1, 1] = 0.25
    lg = extract_layout(heat, threshold=0.25)
    assert lg.cells[1, 1] == 0


def test_argmax_rescaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        heat = rng.random((4, 6, 6))
        t = 0.3
        scale = rng.uniform(0.1, 10)
        lg1 = extract_layout(heat, t)
        lg2 = extract_layout(heat * scale, t * scale)
        np.testing.assert_array_equal(lg1.cells, lg2.cells)


def test_grid_to_world_unit_cells():
    assert grid_to_world((0, 0, 32, 32), (0, 0), 32) == (0.5, 0.5)
    assert grid_to_world((0, 0, 1, 1), (1, 1), 2) == (0.75, 0.75)
    with pytest.raises(OutOfBoundsError):
        grid_to_world((0, 0, 1, 1), (2, 0), 2)


def test_grid_to_world_raster_round_trip(catalog):
    # a point object at a cell center rasterizes back into that cell
    from test_raster import object_footprint

    frame = (0.0, 0.0, 8.0, 8.0)
    for cell in [(0, 0), (3, 5), (7, 7)]:
        xy = grid_to_world(frame, cell, 8)
        grid = object_footprint(frame, (xy[0], xy[1], 0.5), (0.4, 0.4, 1.0), 8)
        assert grid[cell] == pytest.approx(1.0)


def test_place_single_peak():
    heat = np.zeros((2, 8, 8))
    heat[1, 3, 4] = 1.0
    lg = extract_layout(heat, default_threshold(8))
    placements = place_blind_nodes(heat, [(1, 1)], lg, (0, 0, 8, 8))
    assert len(placements) == 1
    assert placements[0].cell == (3, 4)
    assert placements[0].xy == (3.5, 4.5)


def test_place_two_equal_peaks():
    heat = np.zeros((1, 4, 4))
    heat[0, 1, 1] = 0.5
    heat[0, 2, 2] = 0.5
    lg = extract_layout(heat, 0.1)
    placements = place_blind_nodes(heat, [(0, 2)], lg, (0, 0, 4, 4))
    # deterministic row-major order on ties
    assert [p.cell for p in placements] == [(1, 1), (2, 2)]


def test_place_zero_blind():
    heat = np.ones((1, 4, 4)) / 16
    lg = extract_layout(heat, 0.0)
    assert place_blind_nodes(heat, [(0, 0)], lg, (0, 0, 4, 4)) == []
    assert place_blind_nodes(heat, [], lg, (0, 0, 4, 4)) == []


def test_place_insufficient_support():
    heat = np.zeros((1, 4, 4))
    heat[0, 0, 0] = 1.0
    lg = extract_layout(heat, 0.1)
    placements = place_blind_nodes(heat, [(0, 3)], lg, (0, 0, 4, 4))
    assert len(placements) == 3
    assert placements[0].cell == (0, 0) and not placements[0].low_support
    # extras reuse the global-max cell, flagged
    assert all(p.cell == (0, 0) and p.low_support for p in placements[1:])


def test_placement_permutation_stable():
    rng = np.random.default_rng(1)
    heat = rng.random((3, 6, 6))
    heat /= heat.sum(axis=(1, 2), keepdims=True)
    lg = extract_layout(heat, default_threshold(6))
    frame = (0, 0, 6, 6)
    blind = [(0, 2), (2, 1), (1, 3)]
    p1 = place_blind_nodes(heat, blind, lg, frame)
    p2 = place_blind_nodes(heat, list(reversed(blind)), lg, frame)
    key = lambda p: (p.class_index, p.cell)
    assert sorted(map(key, p1)) == sorted(map(key, p2))


def test_placements_inside_frame():
    rng = np.random.default_rng(2)
    heat = rng.random((2, 8, 8))
    heat /= heat.sum(axis=(1, 2), keepdims=True)
    frame = (-3.0, 2.0, 5.0, 9.0)
    lg = extract_layout(heat, default_threshold(8), frame)
    for p in place_blind_nodes(heat, [(0, 4), (1, 4)], lg, frame):
        assert frame[0] <= p.xy[0] <= frame[2]
        assert frame[1] <= p.xy[1] <= frame[3]


def test_layout_json_round_trip():
    rng = np.random.default_rng(3)
    heat = rng.random((2, 5, 5))
    heat /= heat.sum(axis=(1, 2), keepdims=True)
    lg = extract_layout(heat, 0.05, (0, 0, 5, 5))
    placements = place_blind_nodes(heat, [(0, 1), (1, 2)], lg, (0, 0, 5, 5))
    room_id, lg2, p2 = layout_from_dict(layout_to_dict(9, lg, placements))
    assert room_id == 9
    np.testing.assert_array_equal(lg.cells, lg2.cells)
    assert [(p.class_index, p.cell, p.xy) for p in placements] == [
        (p.class_index, p.cell, p.xy) for p in p2
    ]
