import json
import struct

import numpy as np
import pytest

from scenecomp.errors import OutOfBoundsError
from scenecomp.layout import (
    EMPTY,
    LayoutGrid,
    Placement,
    _rle,
    default_threshold,
    extract_layout,
    grid_to_world,
    layout_from_dict,
    layout_to_dict,
    place_blind_nodes,
)
from scenecomp.render import _class_color, layout_to_ppm

from raster_oracles import frame_edges


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
    room_id, lg2, p2 = layout_from_dict(layout_to_dict(9, lg, placements), 2)
    assert room_id == 9
    np.testing.assert_array_equal(lg.cells, lg2.cells)
    assert [(p.class_index, p.cell, p.xy) for p in placements] == [
        (p.class_index, p.cell, p.xy) for p in p2
    ]


# --- the loops that the whole-array paths replaced, kept as oracles ---------


def loop_layout_to_ppm(layout: LayoutGrid) -> bytes:
    s = layout.grid_size
    rgb = np.zeros((s, s, 3), dtype=np.uint8)
    for i in range(s):
        for j in range(s):
            rgb[i, j] = _class_color(int(layout.cells[i, j]))
    header = f"P6\n{s} {s}\n255\n".encode("ascii")
    return header + rgb.transpose(1, 0, 2)[::-1].tobytes()


def loop_rle(values: list[int]) -> list[list[int]]:
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def loop_grid_to_world(frame, cell: tuple[int, int], grid_size: int) -> tuple[float, float]:
    """World coordinates of a cell center under the room frame's linear map."""
    i, j = cell
    if not (0 <= i < grid_size and 0 <= j < grid_size):
        raise OutOfBoundsError(f"cell {cell} outside a {grid_size}x{grid_size} grid")
    ex, ey = frame_edges(frame, grid_size)
    return (float((ex[i] + ex[i + 1]) / 2), float((ey[j] + ey[j + 1]) / 2))


def loop_place_blind_nodes(
    heatmaps: np.ndarray,
    blind: list[tuple[int, int]],
    layout: LayoutGrid,
    frame,
) -> list[Placement]:
    s = layout.grid_size
    placements: list[Placement] = []
    for class_index, count in sorted(blind):
        if count < 0:
            raise ValueError("blind counts must be non-negative")
        if count == 0:
            continue
        grid = heatmaps[class_index]
        flat = grid.ravel()
        # stable sort by descending probability, then row-major index
        order = np.argsort(-flat, kind="stable")
        n_nonzero = int(np.count_nonzero(flat))
        for k in range(count):
            if k < n_nonzero:
                idx = int(order[k])
            else:
                # out of support: reuse the class's global-max cells, flagged
                idx = int(order[(k - n_nonzero) % max(1, n_nonzero)])
            i, j = divmod(idx, s)
            placements.append(
                Placement(
                    class_index,
                    (i, j),
                    loop_grid_to_world(frame, (i, j), s),
                    low_support=k >= n_nonzero,
                )
            )
    return placements


PARITY_SIZES = (1, 2, 7, 16, 32, 33)


def parity_grids(s: int, seed: int):
    """(name, S x S cells): random classes, all EMPTY, one run, class ids >= 256."""
    rng = np.random.default_rng(seed)
    # patches of one value, so that runs longer than one cell occur
    patchy = rng.integers(EMPTY, 35, size=(s, s))
    patchy[:, : s // 2] = patchy[:, :1]
    wide = rng.choice(np.array([EMPTY, 0, 255, 256, 300, 10**6, 2**40, 2**63 - 1]), size=(s, s))
    return [
        ("random", rng.integers(EMPTY, 35, size=(s, s))),
        ("patchy", patchy),
        ("all-empty", np.full((s, s), EMPTY, dtype=np.int64)),
        ("one-run", np.full((s, s), 7, dtype=np.int64)),
        ("class-ids-from-256", rng.integers(256, 512, size=(s, s))),
        ("wide-values", wide),
    ]


@pytest.mark.parametrize("s", PARITY_SIZES)
def test_layout_to_ppm_equals_loop_oracle(s):
    for name, cells in parity_grids(s, seed=s):
        lg = LayoutGrid(cells, 0.1)
        assert layout_to_ppm(lg) == loop_layout_to_ppm(lg), name


@pytest.mark.parametrize("s", PARITY_SIZES)
def test_rle_equals_loop_oracle(s):
    for name, cells in parity_grids(s, seed=100 + s):
        runs, want = _rle(cells.ravel()), loop_rle([int(v) for v in cells.ravel()])
        # json.dumps refuses NumPy ints, so equal text means lists of Python ints
        assert json.dumps(runs) == json.dumps(want), name
        lg = LayoutGrid(cells, 0.1)
        assert json.dumps(layout_to_dict(3, lg, [])) == json.dumps(
            {"room_id": 3, "S": s, "threshold": 0.1, "cells": want, "placements": []}
        ), name


def _placement_key(p: Placement):
    # the xy bits, so that -0.0 and 0.0 differ
    return (p.class_index, p.cell, struct.pack("<2d", *p.xy), p.low_support)


@pytest.mark.parametrize("s", PARITY_SIZES)
def test_place_blind_nodes_equals_loop_oracle(s):
    rng = np.random.default_rng(200 + s)
    n_low = 0
    for _ in range(4):
        # few non-zero cells and coarse values: ties and wrap-around past the support
        heat = np.round(rng.random((6, s, s)) * 4) / 4 * (rng.random((6, s, s)) < 0.3)
        heat[0] = 0.0  # a class without support
        lo = rng.uniform(-50, 50, size=2)
        frame = (lo[0], lo[1], lo[0] + rng.uniform(0.1, 20), lo[1] + rng.uniform(0.1, 20))
        lg = extract_layout(heat, default_threshold(s), frame)
        blind = [(int(c), int(rng.integers(0, s * s + 3))) for c in rng.permutation(6)] + [(5, 0)]
        got = place_blind_nodes(heat, blind, lg, frame)
        want = loop_place_blind_nodes(heat, blind, lg, frame)
        assert [_placement_key(p) for p in got] == [_placement_key(p) for p in want]
        assert all(
            type(v) is int for p in got for v in (p.class_index, *p.cell)
        ) and all(type(v) is float for p in got for v in p.xy)
        assert all(type(p.low_support) is bool for p in got)
        n_low += sum(p.low_support for p in got if p.class_index != 0)
        for i in range(s):
            for j in range(s):
                assert struct.pack("<2d", *grid_to_world(frame, (i, j), s)) == struct.pack(
                    "<2d", *loop_grid_to_world(frame, (i, j), s)
                )
    assert n_low > 0  # a wrap-around over a non-empty support was exercised
