"""Discrete room layouts and blind-node placement from predicted heatmaps."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfBoundsError, UnreadableInputError, is_json_int, is_json_number
from .raster import Frame, cell_edges

EMPTY = -1


def default_threshold(grid_size: int) -> float:
    # uniform-density floor: a cell must beat 1/S^2 to be considered occupied
    return 1.0 / (grid_size * grid_size)


@dataclass(frozen=True)
class LayoutGrid:
    cells: np.ndarray  # [S, S] of class index or EMPTY
    threshold: float

    @property
    def grid_size(self) -> int:
        return self.cells.shape[0]


def extract_layout(heatmaps: np.ndarray, threshold: float, frame=None) -> LayoutGrid:
    """Per-cell argmax over classes, emptied where no class beats the threshold,
    which must be finite and >= 0.

    Ties go to the lowest class index. frame is not read; the benchmark
    (`bench/`) still passes the room's frame.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and non-negative")
    best = np.argmax(heatmaps, axis=0)  # lowest index wins ties
    peak = np.max(heatmaps, axis=0)
    cells = np.where(peak >= threshold, best, EMPTY).astype(np.int64)
    return LayoutGrid(cells, threshold)


def _cell_center(edges: tuple[list[float], list[float]], i: int, j: int) -> tuple[float, float]:
    """World coordinates of cell (i, j)'s center, midway between its cell edges."""
    ex, ey = edges
    return ((ex[i] + ex[i + 1]) / 2, (ey[j] + ey[j + 1]) / 2)


def _edge_lists(frame: Frame, grid_size: int) -> tuple[list[float], list[float]]:
    # the raster's cell edges as Python floats: the same bits, cheaper to index
    ex, ey = cell_edges([frame], grid_size)
    return ex[0].tolist(), ey[0].tolist()


def grid_to_world(frame: Frame, cell: tuple[int, int], grid_size: int) -> tuple[float, float]:
    """World coordinates of a cell center under the room frame's linear map."""
    i, j = cell
    if not (0 <= i < grid_size and 0 <= j < grid_size):
        raise OutOfBoundsError(f"cell {cell} outside a {grid_size}x{grid_size} grid")
    return _cell_center(_edge_lists(frame, grid_size), i, j)


@dataclass(frozen=True)
class Placement:
    class_index: int
    cell: tuple[int, int]
    xy: tuple[float, float]
    low_support: bool = False  # placed beyond the nonzero cells of its heatmap


def place_blind_nodes(
    heatmaps: np.ndarray,
    blind: list[tuple[int, int]],
    layout: LayoutGrid,
    frame: Frame,
) -> list[Placement]:
    """Greedy per-class placement of blind instances at heatmap peaks.

    Each instance of class k takes the highest-probability cell of k's
    heatmap not already holding an instance of k; ties resolve in row-major
    cell order. When a class has more instances than nonzero cells the
    remainder continues down the same ordering with a warning flag.
    """
    s = layout.grid_size
    placements: list[Placement] = []
    edges = None  # the room's cell edges, computed once and only if a placement needs them
    for class_index, count in sorted(blind):
        if count < 0:
            raise ValueError("blind counts must be non-negative")
        if count == 0:
            continue
        if edges is None:
            edges = _edge_lists(frame, s)
        flat = heatmaps[class_index].ravel()
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
                Placement(class_index, (i, j), _cell_center(edges, i, j), low_support=k >= n_nonzero)
            )
    return placements


# --- serialization --------------------------------------------------------


def _rle(values: np.ndarray) -> list[list[int]]:
    """The [value, length] runs of a 1-d int array, as lists of Python ints."""
    starts_run = np.ones(values.size, dtype=bool)
    starts_run[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(starts_run)
    return np.column_stack((values[starts], np.diff(starts, append=values.size))).tolist()


def _unrle(runs, s: int) -> np.ndarray:
    """The S x S cells that the runs [value, length] describe.

    Runs that are not [value >= EMPTY, length > 0] pairs of ints, or that
    do not cover the S x S cells exactly, raise UnreadableInputError.
    """
    if not isinstance(runs, list):
        raise UnreadableInputError("layout cells are not a list of runs")
    values, lengths = [], []
    for r in runs:
        if not (
            type(r) is list and len(r) == 2 and is_json_int(r[0]) and is_json_int(r[1])
            and r[0] >= EMPTY and r[1] > 0
        ):
            raise UnreadableInputError(
                f"layout cells must be [value >= {EMPTY}, length > 0] runs of ints"
            )
        values.append(r[0])
        lengths.append(r[1])
    covered = sum(lengths)
    if covered != s * s:
        raise UnreadableInputError(
            f"layout cell runs cover {covered} cells, not the {s * s} of a {s}x{s} grid"
        )
    return np.repeat(np.array(values, dtype=np.int64), lengths).reshape(s, s)


def layout_to_dict(
    room_id: int, layout: LayoutGrid, placements: list[Placement]
) -> dict:
    return {
        "room_id": room_id,
        "S": layout.grid_size,
        "threshold": layout.threshold,
        "cells": _rle(layout.cells.ravel()),
        "placements": [
            {
                "class": p.class_index,
                "cell": list(p.cell),
                "xy": list(p.xy),
                "low_support": p.low_support,
            }
            for p in placements
        ],
    }


_LAYOUT_KEYS = ("room_id", "S", "threshold", "cells", "placements")


def _is_pair(v, test) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(test(e) for e in v)


def layout_from_dict(d: dict, n_classes: int):
    """The (room id, layout, placements) that layout_to_dict wrote.

    A document of another shape raises UnreadableInputError: a missing
    key, a grid size that is not a positive int, cell runs that are not
    [value, length] pairs covering the S x S grid exactly, a cell value
    that is neither EMPTY nor a class index below n_classes, or a placement
    without a class index below n_classes, a cell inside the grid and an
    [x, y] position.
    """
    if not isinstance(d, dict):
        raise UnreadableInputError(f"layout room is a JSON {type(d).__name__}, not an object")
    missing = [k for k in _LAYOUT_KEYS if k not in d]
    if missing:
        raise UnreadableInputError(f"layout room lacks the keys {missing}")
    s = d["S"]
    if not is_json_int(s) or s <= 0:
        raise UnreadableInputError(f"layout grid size {s!r} is not a positive int")
    if not is_json_int(d["room_id"]) or not is_json_number(d["threshold"]):
        raise UnreadableInputError("layout room_id must be an int and threshold a number")
    bad_cells = f"layout cells must be {EMPTY} (empty) or class indices below {n_classes}"
    try:
        cells = _unrle(d["cells"], s)
    except OverflowError as e:  # a run value of 2**63 or more does not fit the int64 cells
        raise UnreadableInputError(bad_cells) from e
    if cells.max() >= n_classes:
        raise UnreadableInputError(bad_cells)
    placements = d["placements"]
    if not isinstance(placements, list):
        raise UnreadableInputError("layout placements are not a list")
    for i, p in enumerate(placements):
        if not (
            isinstance(p, dict)
            and is_json_int(p.get("class")) and 0 <= p["class"] < n_classes
            and _is_pair(p.get("cell"), lambda c: is_json_int(c) and 0 <= c < s)
            and _is_pair(p.get("xy"), is_json_number)
            and isinstance(p.get("low_support", False), bool)
        ):
            raise UnreadableInputError(
                f"layout placement {i} needs a class >= 0 and below {n_classes}, a cell [i, j] "
                f"inside the {s}x{s} grid, an xy [x, y] and at most a boolean low_support"
            )
    layout = LayoutGrid(cells, float(d["threshold"]))
    placements = [
        Placement(p["class"], tuple(p["cell"]), tuple(p["xy"]), p.get("low_support", False))
        for p in placements
    ]
    return d["room_id"], layout, placements
