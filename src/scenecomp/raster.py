"""Rasterization of scene graphs into per-room, per-class location heatmaps.

Each room maps its own bounding rectangle onto a fixed S x S grid, so cells
have room-dependent physical size. Grids are indexed [ix, iy] with ix along
the x axis of the room frame.

An object's footprint is its box's overlap area with each cell, normalised
to sum to 1. All objects are rasterized in one array pass with a fixed
summation order: each footprint is divided by the pairwise sum of its full
S x S grid and added into its class plane in object-id order, so the
result is bitwise that of rasterizing one object at a time.

A sample's target and input share that pass (`rasterize_masked`): both use
the frames of the full graph and the same footprints, so an input plane is
the target's unless it holds a masked object, and only such planes are
added up again. `rasterize` is that pass with nothing masked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import OBJECT, SceneGraph, SceneNode, children_of, rooms_of
from .errors import DegenerateRoomError

DEFAULT_GRID_SIZE = 32
# how far from 1 the sum of a present class's plane may lie
SUM_ATOL = 1e-9

Frame = tuple[float, float, float, float]  # (min_x, min_y, max_x, max_y)


@dataclass(frozen=True)
class HeatmapSet:
    """Per-room, per-class location distributions.

    data has shape [n_rooms, n_classes, S, S]; each (room, class) slice sums
    to 1 if the class is present in the room, else is all zero.
    """

    data: np.ndarray
    room_ids: tuple[int, ...]
    grid_size: int
    room_frames: tuple[Frame, ...]

    def validate(self) -> None:
        if self.data.ndim != 4:
            raise ValueError("heatmap data must be rank 4")
        if np.any(self.data < 0):
            raise ValueError("heatmap entries must be non-negative")
        sums = self.data.sum(axis=(2, 3))
        bad = ~(np.isclose(sums, 1.0, atol=SUM_ATOL) | (sums == 0.0))
        if np.any(bad):
            raise ValueError("each (room, class) grid must sum to 1 or be all zero")


@dataclass(frozen=True)
class ObjectCounts:
    """Objects plus blind nodes per room per class; shape [n_rooms, n_classes]."""

    data: np.ndarray
    room_ids: tuple[int, ...]


def stored_frame(room: SceneNode) -> Frame | None:
    """The frame of the room's stored extent, or None if it stores none."""
    if room.position is None or room.dimensions is None or not all(
        d > 0 for d in room.dimensions[:2]
    ):
        return None
    x, y = room.position[0], room.position[1]
    dx, dy = room.dimensions[0], room.dimensions[1]
    return (x - dx / 2, y - dy / 2, x + dx / 2, y + dy / 2)


def room_frame(g: SceneGraph, room_id: int) -> Frame:
    """The room's bounding rectangle on the (x, y) plane.

    Uses the stored room extent when present, otherwise the AABB of the
    room's object children. A stored extent whose frame is not finite or has
    no area (width 1 at x = 1e17 rounds to 0) raises DegenerateRoomError.
    """
    frame = stored_frame(g.node(room_id))
    if frame is not None:
        if not all(map(math.isfinite, frame)):
            raise DegenerateRoomError(f"room {room_id} has a non-finite extent {list(frame)}")
        if not (frame[0] < frame[2] and frame[1] < frame[3]):
            raise DegenerateRoomError(f"room {room_id} has an extent {list(frame)} of zero area")
        return frame
    objs = children_of(g, room_id, OBJECT)
    if not objs:
        raise DegenerateRoomError(f"room {room_id} has no extent and no objects")
    lo_x = min(o.position[0] - o.dimensions[0] / 2 for o in objs)
    hi_x = max(o.position[0] + o.dimensions[0] / 2 for o in objs)
    lo_y = min(o.position[1] - o.dimensions[1] / 2 for o in objs)
    hi_y = max(o.position[1] + o.dimensions[1] / 2 for o in objs)
    if hi_x <= lo_x or hi_y <= lo_y:
        raise DegenerateRoomError(f"room {room_id} has a zero-area frame")
    return (lo_x, lo_y, hi_x, hi_y)


def cell_edges(frames, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and y cell edges, each [n_frames, S + 1], of a sequence of frames.

    Each row is bitwise np.linspace(lo, hi, S + 1) of its own frame and axis.
    """
    f = np.asarray(frames, dtype=float).reshape(-1, 2, 2)  # [frame, lo/hi, x/y]
    edges, step = np.linspace(f[:, 0], f[:, 1], grid_size + 1, retstep=True)  # [S + 1, frame, x/y]
    # np.linspace takes its zero-step branch for every row once one row needs
    # it, so a zero-width frame gets the others computed apart
    if not step.all():
        flat = step == 0
        edges[:, ~flat] = np.linspace(f[:, 0][~flat], f[:, 1][~flat], grid_size + 1)
    return edges[..., 0].T, edges[..., 1].T


def _planes(n_planes: int, planes: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """[n_planes, S * S]: each plane the sum of the grids that name it in
    `planes`, added in their order, then normalized in place to sum to 1
    unless all zero."""
    data = np.zeros((n_planes, grids.shape[1]))
    for p, grid in zip(planes.tolist(), grids):
        data[p] += grid
    sums = data.sum(axis=1, keepdims=True)
    np.divide(data, sums, out=data, where=sums > 0)
    return data


def rasterize_masked(
    g: SceneGraph, masked_ids, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[HeatmapSet, HeatmapSet, ObjectCounts]:
    """Rasterize g's rooms once into target and input heatmaps, and count
    each room's objects and blind nodes per class.

    The target holds every object of g; the input holds those not in
    masked_ids, within the same frames (g's, so a room whose frame comes
    from its objects keeps it when they are masked). An input plane is the
    target's plane unless it holds a masked object; then it is its other
    objects' footprints added in id order and normalized, or all zero. The
    counts are those of the belief graph that turns each masked object into
    a blind node. The input is the target itself when nothing is masked.
    """
    rooms = rooms_of(g)
    S = grid_size
    frames = tuple(room_frame(g, room.id) for room in rooms)
    row = {room.id: ri for ri, room in enumerate(rooms)}
    kids = sorted(((row[p], g.node(c)) for p, c in g.edges if p in row), key=lambda rk: rk[1].id)
    n_classes = g.catalog.n
    counts = np.zeros((len(rooms), n_classes), dtype=np.int64)
    for ri, kid in kids:
        counts[ri, kid.class_index] += 1
    objs = [(ri, kid) for ri, kid in kids if kid.layer == OBJECT]
    # each object's room row, flat (room, class) plane, box (x0, x1, y0, y1)
    # and its room's cell edges
    rows = np.array([ri for ri, _ in objs], dtype=np.intp)
    planes = rows * n_classes + np.array([o.class_index for _, o in objs], dtype=np.intp)
    box = np.array(
        [(p[0] - d[0] / 2, p[0] + d[0] / 2, p[1] - d[1] / 2, p[1] + d[1] / 2)
         for p, d in ((o.position, o.dimensions) for _, o in objs)]
    ).reshape(len(objs), 4)
    ex, ey = cell_edges(frames, S)
    ex, ey = ex[rows], ey[rows]
    wx = np.clip(np.minimum(ex[:, 1:], box[:, 1:2]) - np.maximum(ex[:, :-1], box[:, :1]), 0.0, None)
    wy = np.clip(np.minimum(ey[:, 1:], box[:, 3:]) - np.maximum(ey[:, :-1], box[:, 2:3]), 0.0, None)
    grids = (wx[:, :, None] * wy[:, None, :]).reshape(len(objs), S * S)
    # the full-grid pairwise sum; objects wholly outside the frame are uniform
    totals = grids.sum(axis=1)
    outside = totals <= 0.0
    grids /= np.where(outside, 1.0, totals)[:, None]
    grids[outside] = 1.0 / (S * S)
    # only the planes that hold an object are built; the others stay zero
    held, local = np.unique(planes, return_inverse=True)
    target = _planes(held.size, local, grids)
    masked = set(masked_ids)
    is_masked = np.array([o.id in masked for _, o in objs], dtype=bool)
    inp = target
    if is_masked.any():
        hit = np.zeros(held.size, dtype=bool)  # the planes that hold a masked object
        hit[local[is_masked]] = True
        keep = ~is_masked & hit[local]
        inp = target.copy()
        # each kept object's plane, numbered among the hit planes
        inp[hit] = _planes(int(hit.sum()), (np.cumsum(hit) - 1)[local[keep]], grids[keep])
    shape = (len(rooms), n_classes, S, S)

    def spread(data):
        out = np.zeros((len(rooms) * n_classes, S * S))
        out[held] = data
        return out.reshape(shape)

    target_data = spread(target)
    room_ids = tuple(r.id for r in rooms)
    return (
        HeatmapSet(target_data, room_ids, S, frames),
        HeatmapSet(target_data if inp is target else spread(inp), room_ids, S, frames),
        ObjectCounts(counts, room_ids),
    )


def rasterize(
    g: SceneGraph, grid_size: int = DEFAULT_GRID_SIZE
) -> tuple[HeatmapSet, ObjectCounts]:
    """Rasterize every room into heatmaps and tabulate object counts:
    `rasterize_masked` with nothing masked.

    Blind nodes contribute to counts but never to heatmaps.
    """
    heat, _, counts = rasterize_masked(g, (), grid_size)
    return heat, counts
