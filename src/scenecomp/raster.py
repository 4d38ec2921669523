"""Rasterization of scene graphs into per-room, per-class location heatmaps.

Each room maps its own bounding rectangle onto a fixed S x S grid, so cells
have room-dependent physical size. Grids are indexed [ix, iy] with ix along
the x axis of the room frame.

An object's footprint is its box's overlap area with each cell, normalised
to sum to 1. All objects are rasterized in one array pass with a fixed
summation order: each footprint is divided by the pairwise sum of its full
S x S grid and added into its class plane in object-id order, so the
result is bitwise that of rasterizing one object at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import OBJECT, SceneGraph, SceneNode, children_of, rooms_of
from .errors import DegenerateRoomError

DEFAULT_GRID_SIZE = 32

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

    def validate(self, atol: float = 1e-9) -> None:
        if self.data.ndim != 4:
            raise ValueError("heatmap data must be rank 4")
        if np.any(self.data < 0):
            raise ValueError("heatmap entries must be non-negative")
        sums = self.data.sum(axis=(2, 3))
        bad = ~(np.isclose(sums, 1.0, atol=atol) | (sums == 0.0))
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
    room's object children. A stored extent whose frame is not finite raises
    DegenerateRoomError.
    """
    frame = stored_frame(g.node(room_id))
    if frame is not None:
        if not all(map(math.isfinite, frame)):
            raise DegenerateRoomError(f"room {room_id} has a non-finite extent {list(frame)}")
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


def cell_edges(frame: Frame, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    lo_x, lo_y, hi_x, hi_y = frame
    return (
        np.linspace(lo_x, hi_x, grid_size + 1),
        np.linspace(lo_y, hi_y, grid_size + 1),
    )


def rasterize(
    g: SceneGraph,
    grid_size: int = DEFAULT_GRID_SIZE,
    frames_override: dict[int, Frame] | None = None,
) -> tuple[HeatmapSet, ObjectCounts]:
    """Rasterize every room into heatmaps and tabulate object counts.

    Blind nodes contribute to counts but never to heatmaps. frames_override
    pins room frames externally (needed when comparing graphs whose implied
    child AABBs differ).
    """
    rooms = rooms_of(g)
    S = grid_size
    frames = tuple(
        frames_override[room.id]
        if frames_override is not None and room.id in frames_override
        else room_frame(g, room.id)
        for room in rooms
    )
    row = {room.id: ri for ri, room in enumerate(rooms)}
    kids = sorted(((row[p], g.node(c)) for p, c in g.edges if p in row), key=lambda rk: rk[1].id)
    counts = np.zeros((len(rooms), g.catalog.n), dtype=np.int64)
    for ri, kid in kids:
        counts[ri, kid.class_index] += 1
    objs = [(ri, kid) for ri, kid in kids if kid.layer == OBJECT]
    # each room's cell edges, and each object's room row and box (x0, x1, y0, y1)
    edges = [cell_edges(frame, S) for frame in frames]
    rows = np.array([ri for ri, _ in objs], dtype=np.intp)
    ex = np.array([e[0] for e in edges]).reshape(len(rooms), S + 1)[rows]
    ey = np.array([e[1] for e in edges]).reshape(len(rooms), S + 1)[rows]
    box = np.array(
        [(p[0] - d[0] / 2, p[0] + d[0] / 2, p[1] - d[1] / 2, p[1] + d[1] / 2)
         for p, d in ((o.position, o.dimensions) for _, o in objs)]
    ).reshape(len(objs), 4)
    wx = np.clip(np.minimum(ex[:, 1:], box[:, 1:2]) - np.maximum(ex[:, :-1], box[:, :1]), 0.0, None)
    wy = np.clip(np.minimum(ey[:, 1:], box[:, 3:]) - np.maximum(ey[:, :-1], box[:, 2:3]), 0.0, None)
    grids = wx[:, :, None] * wy[:, None, :]
    # the full-grid pairwise sum; objects wholly outside the frame are uniform
    totals = grids.reshape(len(objs), S * S).sum(axis=1)
    outside = totals <= 0.0
    grids /= np.where(outside, 1.0, totals)[:, None, None]
    grids[outside] = 1.0 / (S * S)
    data = np.zeros((len(rooms), g.catalog.n, S, S))
    for (ri, o), grid in zip(objs, grids):
        data[ri, o.class_index] += grid
    sums = data.sum(axis=(2, 3))
    present = sums > 0
    data[present] /= sums[present, None, None]
    room_ids = tuple(r.id for r in rooms)
    return (
        HeatmapSet(data, room_ids, S, frames),
        ObjectCounts(counts, room_ids),
    )
