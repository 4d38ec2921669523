import numpy as np
import pytest

from scenecomp.graphs import (
    BUILDING,
    GROUND_TRUTH,
    OBJECT,
    ROOM,
    SceneNode,
    build_graph,
    make_belief_graph,
)
from scenecomp.raster import object_footprint, rasterize, room_frame

from conftest import simple_graph


def _one_room_graph(catalog, objects):
    """objects: list of (class_index, position, dimensions); 8x8 room at origin."""
    nodes = [
        SceneNode(0, BUILDING),
        SceneNode(1, ROOM, position=(4.0, 4.0, 1.5), dimensions=(8.0, 8.0, 3.0)),
    ]
    edges = [(0, 1)]
    for k, (ci, pos, dim) in enumerate(objects):
        nodes.append(SceneNode(2 + k, OBJECT, ci, pos, dim))
        edges.append((1, 2 + k))
    return build_graph(nodes, edges, GROUND_TRUTH, catalog)


def test_delta_placement(catalog):
    # 8m room on an 8-cell grid: cells are 1m; chair exactly covers cell (2, 3)
    g = _one_room_graph(catalog, [(1, (2.5, 3.5, 0.5), (1.0, 1.0, 1.0))])
    heat, counts = rasterize(g, grid_size=8)
    grid = heat.data[0, 1]
    assert grid[2, 3] == pytest.approx(1.0)
    assert grid.sum() == pytest.approx(1.0)
    assert counts.data[0, 1] == 1


def test_straddle_two_cells(catalog):
    # chair centered on the boundary between cells (2,3) and (3,3)
    g = _one_room_graph(catalog, [(1, (3.0, 3.5, 0.5), (1.0, 1.0, 1.0))])
    heat, _ = rasterize(g, grid_size=8)
    grid = heat.data[0, 1]
    assert grid[2, 3] == pytest.approx(0.5)
    assert grid[3, 3] == pytest.approx(0.5)


def test_overlap_area_oracle(catalog):
    # independent oracle: integrate the box over each cell by brute force
    rng = np.random.default_rng(0)
    frame = (0.0, 0.0, 8.0, 8.0)
    for _ in range(20):
        pos = tuple(rng.uniform(1, 7, size=2)) + (0.5,)
        dim = tuple(rng.uniform(0.3, 2.5, size=2)) + (1.0,)
        grid = object_footprint(frame, pos, dim, 8)
        oracle = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                ox = max(0.0, min(pos[0] + dim[0] / 2, i + 1.0) - max(pos[0] - dim[0] / 2, float(i)))
                oy = max(0.0, min(pos[1] + dim[1] / 2, j + 1.0) - max(pos[1] - dim[1] / 2, float(j)))
                oracle[i, j] = ox * oy
        oracle /= oracle.sum()
        np.testing.assert_allclose(grid, oracle, atol=1e-12)


def test_blind_nodes_count_but_do_not_paint(catalog):
    ci = catalog.index("chair")
    g = _one_room_graph(
        catalog,
        [(ci, (2.5, 3.5, 0.5), (1, 1, 1)), (ci, (5.5, 5.5, 0.5), (1, 1, 1))],
    )
    b = make_belief_graph(g, [(1, ci, 1)])
    heat, counts = rasterize(b, grid_size=8)
    assert counts.data[0, ci] == 3
    assert heat.data[0, ci].sum() == pytest.approx(1.0)
    # heatmap mass only where the two placed chairs are
    assert heat.data[0, ci][2, 3] == pytest.approx(0.5)
    assert heat.data[0, ci][5, 5] == pytest.approx(0.5)


def test_fully_outside_object_uniform(catalog):
    g = _one_room_graph(catalog, [(0, (50.0, 50.0, 0.5), (1, 1, 1))])
    heat, counts = rasterize(g, grid_size=4)
    assert counts.data[0, 0] == 1
    np.testing.assert_allclose(heat.data[0, 0], 1.0 / 16)


def test_normalization_invariant(catalog):
    g = simple_graph(catalog, (5, 3))
    heat, counts = rasterize(g, grid_size=16)
    heat.validate(atol=1e-9)
    present = counts.data > 0
    sums = heat.data.sum(axis=(2, 3))
    assert np.all(np.abs(sums[present] - 1.0) < 1e-9)
    assert np.all(sums[~present] == 0.0)


def test_translation_invariance(catalog):
    objs = [(0, (2.0, 3.0, 0.5), (1.0, 0.8, 1.0)), (1, (5.5, 6.0, 0.5), (0.6, 0.6, 1.0))]
    g1 = _one_room_graph(catalog, objs)
    shift = (13.0, -7.0)
    shifted = [
        (ci, (p[0] + shift[0], p[1] + shift[1], p[2]), d) for ci, p, d in objs
    ]
    nodes = [
        SceneNode(0, BUILDING),
        SceneNode(
            1, ROOM, position=(4.0 + shift[0], 4.0 + shift[1], 1.5), dimensions=(8.0, 8.0, 3.0)
        ),
    ]
    edges = [(0, 1)]
    for k, (ci, pos, dim) in enumerate(shifted):
        nodes.append(SceneNode(2 + k, OBJECT, ci, pos, dim))
        edges.append((1, 2 + k))
    g2 = build_graph(nodes, edges, GROUND_TRUTH, g1.catalog)
    h1, _ = rasterize(g1, 16)
    h2, _ = rasterize(g2, 16)
    np.testing.assert_allclose(h1.data, h2.data, atol=1e-12)


def test_room_frame_from_children(catalog):
    nodes = [
        SceneNode(0, BUILDING),
        SceneNode(1, ROOM),  # no stored extent
        SceneNode(2, OBJECT, 0, (1.0, 1.0, 0.5), (2.0, 2.0, 1.0)),
        SceneNode(3, OBJECT, 1, (5.0, 3.0, 0.5), (2.0, 2.0, 1.0)),
    ]
    g = build_graph(nodes, [(0, 1), (1, 2), (1, 3)], GROUND_TRUTH, catalog)
    assert room_frame(g, 1) == (0.0, 0.0, 6.0, 4.0)

