"""Bit-exact image rendering of heatmaps (PGM) and layouts (PPM).

Binary netpbm formats are used on purpose: golden-file tests can compare
bytes without an image library.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .layout import EMPTY, LayoutGrid
from .raster import HeatmapSet


def heatmap_to_pgm(grid: np.ndarray) -> bytes:
    """P5 grayscale, linearly scaled so the grid maximum maps to 255."""
    s = grid.shape[0]
    peak = float(grid.max())
    if peak > 0:
        scaled = np.rint(grid / peak * 255).astype(np.uint8)
    else:
        scaled = np.zeros_like(grid, dtype=np.uint8)
    header = f"P5\n{s} {s}\n255\n".encode("ascii")
    # rows of the image are the y axis, top row = highest y
    return header + scaled.T[::-1].tobytes()


def _class_color(class_index: int) -> tuple[int, int, int]:
    # fixed deterministic palette; EMPTY is black
    if class_index == EMPTY:
        return (0, 0, 0)
    h = (class_index * 47) % 255
    return (
        (h * 3 + 40) % 256,
        (h * 7 + 90) % 256,
        (h * 11 + 150) % 256,
    )


def layout_to_ppm(layout: LayoutGrid) -> bytes:
    s = layout.grid_size
    # one palette entry per distinct cell value, gathered into the image
    values, inverse = np.unique(layout.cells.ravel(), return_inverse=True)
    palette = np.array([_class_color(v) for v in values.tolist()], dtype=np.uint8).reshape(-1, 3)
    # the inverse's shape differs across NumPy 2.x releases
    rgb = palette[inverse.reshape(s, s)]
    header = f"P6\n{s} {s}\n255\n".encode("ascii")
    return header + rgb.transpose(1, 0, 2)[::-1].tobytes()


def render_heatmaps(heatmaps: HeatmapSet, labels, out_dir) -> list[Path]:
    """One PGM per (room, present class); returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for ri, room_id in enumerate(heatmaps.room_ids):
        for ci in range(heatmaps.data.shape[1]):
            grid = heatmaps.data[ri, ci]
            if grid.sum() == 0:
                continue
            path = out_dir / f"room{room_id}_{labels[ci]}.pgm"
            path.write_bytes(heatmap_to_pgm(grid))
            written.append(path)
    return written


def render_layout(room_id: int, layout: LayoutGrid, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"room{room_id}_layout.ppm"
    path.write_bytes(layout_to_ppm(layout))
    return path
