"""Rasterization of scene graphs into per-room, per-class location heatmaps.

Each room maps its own bounding rectangle onto a fixed S x S grid, so cells
have room-dependent physical size. Grids are indexed [ix, iy] with ix along
the x axis of the room frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BLIND, OBJECT, SceneGraph, children_of, rooms_of
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


def room_frame(g: SceneGraph, room_id: int) -> Frame:
    """The room's bounding rectangle on the (x, y) plane.

    Uses the stored room extent when present, otherwise the AABB of the
    room's object children.
    """
    room = g.node(room_id)
    if room.position is not None and room.dimensions is not None and all(
        d > 0 for d in room.dimensions[:2]
    ):
        x, y = room.position[0], room.position[1]
        dx, dy = room.dimensions[0], room.dimensions[1]
        return (x - dx / 2, y - dy / 2, x + dx / 2, y + dy / 2)
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


def _interval_overlap(edges: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)


def object_footprint(
    frame: Frame,
    position: tuple[float, float, float],
    dimensions: tuple[float, float, float],
    grid_size: int,
) -> np.ndarray:
    """Single-object distribution over the room grid, summing to 1.

    The AABB footprint is spread over the overlapped cells in proportion to
    the overlap area. Objects fully outside the frame get a uniform in-room
    footprint so that counts and heatmaps stay consistent.
    """
    S = grid_size
    ex, ey = cell_edges(frame, S)
    x0 = position[0] - dimensions[0] / 2
    x1 = position[0] + dimensions[0] / 2
    y0 = position[1] - dimensions[1] / 2
    y1 = position[1] + dimensions[1] / 2
    wx = _interval_overlap(ex, x0, x1)
    wy = _interval_overlap(ey, y0, y1)
    grid = np.outer(wx, wy)
    total = grid.sum()
    if total <= 0.0:
        return np.full((S, S), 1.0 / (S * S))
    return grid / total


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
    n_classes = g.catalog.n
    S = grid_size
    data = np.zeros((len(rooms), n_classes, S, S))
    counts = np.zeros((len(rooms), n_classes), dtype=np.int64)
    frames = []
    for ri, room in enumerate(rooms):
        if frames_override is not None and room.id in frames_override:
            frame = frames_override[room.id]
        else:
            frame = room_frame(g, room.id)
        frames.append(frame)
        for obj in children_of(g, room.id, OBJECT):
            counts[ri, obj.class_index] += 1
            data[ri, obj.class_index] += object_footprint(frame, obj.position, obj.dimensions, S)
        for blind in children_of(g, room.id, BLIND):
            counts[ri, blind.class_index] += 1
        sums = data[ri].sum(axis=(1, 2))
        present = sums > 0
        data[ri, present] /= sums[present, None, None]
    room_ids = tuple(r.id for r in rooms)
    return (
        HeatmapSet(data, room_ids, S, tuple(frames)),
        ObjectCounts(counts, room_ids),
    )
