"""Tests of the rasterizer.

The `..._equals_loop_oracle` tests compare `rasterize` bit for bit against
`raster_oracles.loop_rasterize`, the per-object loop rasterizer, and the
`..._equals_two_pass_oracle` tests compare `build_sample`'s one pass against
`raster_oracles.two_pass_build_sample`, which rasterizes target and input
apart.
"""
from dataclasses import replace

import numpy as np
import pytest

from scenecomp.dataset import (
    build_sample,
    default_templates,
    draw_masked,
    generate_synthetic_scene,
    make_sample,
    sample_from_dict,
    sample_to_dict,
)
from scenecomp.errors import DegenerateRoomError
from scenecomp.graphs import (
    BUILDING,
    GROUND_TRUTH,
    OBJECT,
    ROOM,
    SceneNode,
    augment,
    build_graph,
    make_belief_graph,
    rooms_of,
)
from scenecomp.raster import (
    HeatmapSet,
    cell_edges,
    rasterize,
    room_frame,
)

from conftest import simple_graph
from raster_oracles import frame_edges, loop_rasterize, object_footprint, two_pass_build_sample

PARITY_GRID_SIZES = (1, 2, 7, 8, 16, 32, 33)


def assert_heatmaps_identical(got: HeatmapSet, want: HeatmapSet) -> None:
    assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert (got.room_ids, got.grid_size) == (want.room_ids, want.grid_size)
    assert np.array(got.room_frames).tobytes() == np.array(want.room_frames).tobytes()


def assert_raster_identical(got, want) -> None:
    (gh, gc), (wh, wc) = got, want
    assert_heatmaps_identical(gh, wh)
    assert gc.data.dtype == wc.data.dtype and gc.data.tobytes() == wc.data.tobytes()
    assert gc.room_ids == wc.room_ids


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
    heat.validate()
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



# --- parity with the loop oracle --------------------------------------------


def _pushed_scene(catalog, seed, share=0.3):
    """A generated 3-room scene with about `share` of its objects moved by
    0.3 to 1.5 room sizes, so that they straddle the frame or leave it."""
    g = generate_synthetic_scene(default_templates(), 3, seed, catalog)
    rng = np.random.default_rng(seed)
    parent = {c: p for p, c in g.edges}
    nodes = []
    for n in g.nodes:
        if n.layer == OBJECT and rng.random() < share:
            room = g.node(parent[n.id])
            dx, dy = rng.uniform(0.3, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
            x = n.position[0] + float(dx) * room.dimensions[0]
            y = n.position[1] + float(dy) * room.dimensions[1]
            n = replace(n, position=(x, y, n.position[2]))
        nodes.append(n)
    return build_graph(nodes, list(g.edges), GROUND_TRUTH, catalog)


def _outside_shares(g):
    """Objects that straddle their room's frame, and objects wholly outside it."""
    parent = {c: p for p, c in g.edges}
    straddle = outside = 0
    for n in g.nodes_in_layer(OBJECT):
        lo_x, lo_y, hi_x, hi_y = room_frame(g, parent[n.id])
        x0, x1 = n.position[0] - n.dimensions[0] / 2, n.position[0] + n.dimensions[0] / 2
        y0, y1 = n.position[1] - n.dimensions[1] / 2, n.position[1] + n.dimensions[1] / 2
        if x1 <= lo_x or x0 >= hi_x or y1 <= lo_y or y0 >= hi_y:
            outside += 1
        elif x0 < lo_x or x1 > hi_x or y0 < lo_y or y1 > hi_y:
            straddle += 1
    return straddle, outside


@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_rasterize_equals_loop_oracle(catalog, grid_size):
    scenes = [_pushed_scene(catalog, seed) for seed in range(4)]
    straddle, outside = map(sum, zip(*map(_outside_shares, scenes)))
    assert straddle > 0 and outside > 0
    for g in scenes:
        assert_raster_identical(rasterize(g, grid_size), loop_rasterize(g, grid_size))


def _mixed_room_graph(catalog):
    """Room 1 has no stored extent, room 2 is blind-only, room 3 is empty;
    edges are listed in reverse so that child order comes from node ids."""
    nodes = [
        SceneNode(0, BUILDING),
        SceneNode(1, ROOM),
        SceneNode(2, ROOM, position=(14.0, 3.0, 1.5), dimensions=(6.0, 6.0, 3.0)),
        SceneNode(3, ROOM, position=(24.0, 3.0, 1.5), dimensions=(5.0, 4.0, 3.0)),
        SceneNode(4, OBJECT, 1, (1.0, 1.0, 0.5), (2.0, 2.0, 1.0)),
        SceneNode(5, OBJECT, 1, (5.3, 3.1, 0.5), (1.7, 2.2, 1.0)),
        SceneNode(6, OBJECT, 0, (2.9, 2.2, 0.5), (0.3, 0.7, 1.0)),
    ]
    edges = [(1, 6), (1, 5), (1, 4), (0, 3), (0, 2), (0, 1)]
    g = build_graph(nodes, edges, GROUND_TRUTH, catalog)
    return make_belief_graph(g, [(2, 1, 2), (2, 4, 1), (1, 1, 1)])


@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_rasterize_equals_loop_oracle_on_special_rooms(catalog, grid_size):
    g = _mixed_room_graph(catalog)
    heat, counts = rasterize(g, grid_size)
    assert_raster_identical((heat, counts), loop_rasterize(g, grid_size))
    assert counts.data[1].sum() == 3 and not heat.data[1:].any()
    roomless = build_graph([SceneNode(0, BUILDING)], [], GROUND_TRUTH, catalog)
    assert_raster_identical(rasterize(roomless, grid_size), loop_rasterize(roomless, grid_size))
    # stored extents: room 1 shrunk so that its objects straddle it, room 3
    # moved away from nothing, room 2 left as it is
    extents = {1: ((1.75, 1.25, 1.5), (2.5, 1.5, 3.0)), 3: ((-35.0, -35.5, 1.5), (10.0, 9.0, 3.0))}
    nodes = [
        replace(n, position=extents[n.id][0], dimensions=extents[n.id][1]) if n.id in extents else n
        for n in g.nodes
    ]
    pinned = build_graph(nodes, list(g.edges), g.kind, catalog)
    assert room_frame(pinned, 1) == (0.5, 0.5, 3.0, 2.0)
    assert room_frame(pinned, 3) == (-40.0, -40.0, -30.0, -31.0)
    assert_raster_identical(rasterize(pinned, grid_size), loop_rasterize(pinned, grid_size))


def test_rasterize_refuses_extentless_blind_room_like_oracle(catalog):
    nodes = [SceneNode(0, BUILDING), SceneNode(1, ROOM)]
    g = make_belief_graph(build_graph(nodes, [(0, 1)], GROUND_TRUTH, catalog), [(1, 0, 2)])
    for raster in (rasterize, loop_rasterize):
        with pytest.raises(DegenerateRoomError):
            raster(g, 8)


@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_sample_rasters_equal_loop_oracle(catalog, grid_size):
    # make_sample and its read-back rasterize target and input within the
    # truth's frames; both must be the oracle's bits
    for seed in range(3):
        g_aug = augment(_pushed_scene(catalog, 10 + seed), 0.25, seed)
        frames = {r.id: room_frame(g_aug, r.id) for r in rooms_of(g_aug)}
        s = make_sample(g_aug, 0.25, grid_size, seed)
        target, _ = loop_rasterize(g_aug, grid_size, frames_override=frames)
        heat, counts = loop_rasterize(s.graph, grid_size, frames_override=frames)
        for read in (s, sample_from_dict(sample_to_dict(s), grid_size)):
            assert_heatmaps_identical(read.target_heatmaps, target)
            assert_raster_identical((read.input_heatmaps, read.counts), (heat, counts))


# --- cell edges -------------------------------------------------------------


@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_cell_edges_equal_per_frame_linspace(catalog, grid_size):
    scenes = [generate_synthetic_scene(default_templates(), 4, seed, catalog) for seed in range(6)]
    frames = [room_frame(g, r.id) for g in scenes for r in rooms_of(g)]
    frames += [
        (-7.25, -1e3, -0.1, 3.3),
        (-1e15, 2.5e14, 3e15, 2.5e14 + 1.0),
        (1e300, -4e307, 1.5e300, 4e307),
        (0.1, 0.2, 0.1 + 1e-12, 0.3),
    ]
    for rows in (frames, frames + [(1e17, 0.0, 1e17, 1.0)]):  # with a zero-width frame
        ex, ey = cell_edges(rows, grid_size)
        assert ex.shape == ey.shape == (len(rows), grid_size + 1)
        for frame, x, y in zip(rows, ex, ey):
            want_x, want_y = frame_edges(frame, grid_size)
            assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()
    ex, ey = cell_edges([], grid_size)
    assert ex.shape == ey.shape == (0, grid_size + 1)


# --- one-pass sample build against the two-pass oracle ----------------------


def assert_samples_identical(got, want) -> None:
    assert_raster_identical((got.input_heatmaps, got.counts), (want.input_heatmaps, want.counts))
    assert_heatmaps_identical(got.target_heatmaps, want.target_heatmaps)
    assert got.masked == want.masked
    assert got.graph.nodes == want.graph.nodes and got.graph.edges == want.graph.edges
    assert (got.graph.kind, got.truth) == (want.graph.kind, want.truth)


def assert_input_shares_target_planes(s) -> None:
    # an input plane is the target's, bitwise, unless it holds a masked object
    rows = {room_id: ri for ri, room_id in enumerate(s.target_heatmaps.room_ids)}
    hit = {(rows[room_id], ci) for room_id, ci, _ in s.masked}
    for ri, ci in np.ndindex(s.counts.data.shape):
        if (ri, ci) not in hit:
            got, want = s.input_heatmaps.data[ri, ci], s.target_heatmaps.data[ri, ci]
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_build_sample_equals_two_pass_oracle(catalog, grid_size):
    graphs = [
        augment(generate_synthetic_scene(default_templates(), 1 + seed % 4, seed, catalog), 0.25, seed)
        for seed in range(6)
    ] + [_pushed_scene(catalog, 20 + seed) for seed in range(3)]
    for k, g in enumerate(graphs):
        for fraction in (0.25, 0.6, 1.0):
            ids = draw_masked(g, fraction, seed=k)
            s = build_sample(g, ids, grid_size)
            assert_samples_identical(s, two_pass_build_sample(g, ids, grid_size))
            assert_input_shares_target_planes(s)


def _masking_cases_graph(catalog):
    """Room 1 stores no extent: its frame is its objects' box, which masking
    objects 10 and 13 would shrink. Room 2 stores one; objects 20 and 21 lie
    wholly outside it. Room 3 stores one and holds no object."""
    chair, lamp, plant, sofa = (catalog.index(c) for c in ("chair", "lamp", "plant", "sofa"))
    nodes = [
        SceneNode(0, BUILDING),
        SceneNode(1, ROOM),
        SceneNode(2, ROOM, position=(14.0, 3.0, 1.5), dimensions=(6.0, 6.0, 3.0)),
        SceneNode(3, ROOM, position=(24.0, 3.0, 1.5), dimensions=(5.0, 4.0, 3.0)),
        SceneNode(10, OBJECT, chair, (1.0, 1.0, 0.5), (2.0, 2.0, 1.0)),
        SceneNode(11, OBJECT, chair, (5.3, 3.1, 0.5), (1.7, 2.2, 1.0)),
        SceneNode(12, OBJECT, plant, (2.9, 2.2, 0.5), (0.3, 0.7, 1.0)),
        SceneNode(13, OBJECT, lamp, (8.0, 6.5, 0.5), (1.0, 1.0, 1.0)),
        SceneNode(20, OBJECT, sofa, (50.0, 50.0, 0.5), (1.0, 1.0, 1.0)),
        SceneNode(21, OBJECT, sofa, (-30.0, 2.0, 0.5), (2.0, 0.9, 1.0)),
        SceneNode(22, OBJECT, sofa, (13.0, 2.5, 0.5), (2.0, 0.9, 1.0)),
        SceneNode(23, OBJECT, plant, (40.0, 3.0, 0.5), (0.4, 0.4, 1.0)),
    ]
    edges = [(0, 1), (0, 2), (0, 3), (1, 13), (1, 12), (1, 11), (1, 10), (2, 23), (2, 22), (2, 21), (2, 20)]
    return build_graph(nodes, edges, GROUND_TRUTH, catalog)


MASKING_CASES = {
    # room 1's lamp plane all masked, its chair plane mixed, and its box shrunk
    "all-masked-and-mixed-planes": (10, 13),
    # a masked sofa and an unmasked one both wholly outside room 2
    "outside-frame": (20,),
    "outside-frame-alone": (23,),
    "every-object": (10, 11, 12, 13, 20, 21, 22, 23),
}


@pytest.mark.parametrize("case", sorted(MASKING_CASES))
@pytest.mark.parametrize("grid_size", PARITY_GRID_SIZES)
def test_build_sample_equals_two_pass_oracle_on_masking_cases(catalog, grid_size, case):
    g = _masking_cases_graph(catalog)
    ids = MASKING_CASES[case]
    s = build_sample(g, ids, grid_size)
    assert_samples_identical(s, two_pass_build_sample(g, ids, grid_size))
    assert_input_shares_target_planes(s)
    rows = {room_id: ri for ri, room_id in enumerate(s.target_heatmaps.room_ids)}
    # room 1 keeps the box of all its objects, masked ones included
    assert s.input_heatmaps.room_frames[rows[1]] == room_frame(g, 1) == (0.0, 0.0, 8.5, 7.0)
    assert not s.target_heatmaps.data[rows[3]].any()  # the empty room
    for room_id, ci, _ in s.masked:
        kept = [c for p, c in g.edges if p == room_id and c not in ids and g.node(c).class_index == ci]
        plane = s.input_heatmaps.data[rows[room_id], ci]
        assert plane.sum() == (pytest.approx(1.0) if kept else 0.0)


def test_build_sample_without_masked_ids_shares_target(catalog):
    g = _masking_cases_graph(catalog)
    s = build_sample(g, (), 8)
    assert s.input_heatmaps.data.tobytes() == s.target_heatmaps.data.tobytes()
    assert_samples_identical(s, two_pass_build_sample(g, (), 8))
