"""Correctness oracles for the benchmark, computed apart from scenecomp's code.

Every check raises CheckFailed when the program's output disagrees with an
independent computation or with a property the method must have. The
oracles read only plain data (arrays, node tuples, bytes), never the
program's helper functions, so a fault in a helper cannot hide itself.
"""
from __future__ import annotations

import re

import numpy as np
from scipy import stats

EMPTY = -1


class CheckFailed(AssertionError):
    """An output of the program failed an independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- distances ------------------------------------------------------------


def _unit_support(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def w1_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """1-Wasserstein distance of two grids over the row-major unit support."""
    p, q = np.ravel(p), np.ravel(q)
    u = _unit_support(p.size)
    return float(stats.wasserstein_distance(u, u, p, q))


def energy_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """Energy distance of two grids over the row-major unit support."""
    p, q = np.ravel(p), np.ravel(q)
    u = _unit_support(p.size)
    return float(stats.energy_distance(u, u, p, q))


def check_distance(kind: str, got: float, p: np.ndarray, q: np.ndarray, atol=1e-12) -> None:
    want = w1_oracle(p, q) if kind == "wasserstein" else energy_oracle(p, q)
    expect(abs(got - want) <= atol, f"{kind} {got!r} != scipy {want!r}")


def check_mean(what: str, got: float, values, rtol=1e-12) -> None:
    want = float(np.mean(values))
    expect(abs(got - want) <= rtol * abs(want), f"{what} mean {got!r} != oracle {want!r}")


# --- scene data -----------------------------------------------------------


def graph_rooms(nodes, edges):
    """Rooms of a graph as {room_id: (room_node, [child nodes])}, ids ascending.

    nodes are scenecomp SceneNode objects; only their plain fields are read.
    """
    by_id = {n.id: n for n in nodes}
    rooms = {n.id: (n, []) for n in sorted(nodes, key=lambda n: n.id) if n.layer == "room"}
    for parent, child in edges:
        if parent in rooms:
            rooms[parent][1].append(by_id[child])
    return rooms


def room_extent(room) -> tuple[float, float, float, float]:
    (x, y, _), (dx, dy, _) = room.position, room.dimensions
    return (x - dx / 2, y - dy / 2, x + dx / 2, y + dy / 2)


def overlap_area_heatmaps(nodes, edges, n_classes: int, grid: int) -> np.ndarray:
    """Target heatmaps [rooms, classes, S, S] by explicit cell/footprint overlap.

    Each object's footprint is its axis-aligned rectangle's overlap area with
    every cell of the room's frame, normalized to 1 (uniform when it misses
    the frame); a present class is the normalized sum of its objects.
    """
    rooms = graph_rooms(nodes, edges)
    out = np.zeros((len(rooms), n_classes, grid, grid))
    for ri, (room, children) in enumerate(rooms.values()):
        lo_x, lo_y, hi_x, hi_y = room_extent(room)
        k = np.arange(grid)
        cx0 = lo_x + (hi_x - lo_x) * k / grid
        cx1 = lo_x + (hi_x - lo_x) * (k + 1) / grid
        cy0 = lo_y + (hi_y - lo_y) * k / grid
        cy1 = lo_y + (hi_y - lo_y) * (k + 1) / grid
        for obj in children:
            if obj.layer != "object":
                continue
            (x, y, _), (dx, dy, _) = obj.position, obj.dimensions
            w = np.maximum(0.0, np.minimum(cx1, x + dx / 2) - np.maximum(cx0, x - dx / 2))
            h = np.maximum(0.0, np.minimum(cy1, y + dy / 2) - np.maximum(cy0, y - dy / 2))
            area = w[:, None] * h[None, :]
            total = area.sum()
            out[ri, obj.class_index] += area / total if total > 0 else 1.0 / grid**2
        mass = out[ri].sum(axis=(1, 2))
        for c in np.nonzero(mass)[0]:
            out[ri, c] /= mass[c]
    return out


def check_target_heatmaps(got: np.ndarray, truth_nodes, truth_edges, atol=1e-12) -> None:
    want = overlap_area_heatmaps(truth_nodes, truth_edges, got.shape[1], got.shape[2])
    expect(got.shape == want.shape, f"target shape {got.shape} != {want.shape}")
    err = float(np.abs(got - want).max())
    expect(err <= atol, f"target heatmaps differ from overlap-area oracle by {err:.3g}")


def class_counts(nodes, edges, n_classes: int) -> np.ndarray:
    """Object plus blind children per room and class, counted from the edges."""
    rooms = graph_rooms(nodes, edges)
    counts = np.zeros((len(rooms), n_classes), dtype=np.int64)
    for ri, (_, children) in enumerate(rooms.values()):
        for c in children:
            if c.layer in ("object", "blind"):
                counts[ri, c.class_index] += 1
    return counts


def blind_counts(nodes, edges) -> dict[int, dict[int, int]]:
    """{room_id: {class_index: blind nodes}} counted from the edges."""
    out = {}
    for room_id, (_, children) in graph_rooms(nodes, edges).items():
        per_class = {}
        for c in children:
            if c.layer == "blind":
                per_class[c.class_index] = per_class.get(c.class_index, 0) + 1
        out[room_id] = per_class
    return out


def check_sample_counts(counts: np.ndarray, belief_nodes, belief_edges, n_masked: int,
                        n_truth_objects: int, blind_fraction: float) -> None:
    want = class_counts(belief_nodes, belief_edges, counts.shape[1])
    expect(np.array_equal(counts, want), "counts != object plus blind children per class")
    n_blind = sum(1 for n in belief_nodes if n.layer == "blind")
    expected = max(1, round(blind_fraction * n_truth_objects))
    expect(n_blind == n_masked == expected,
           f"masked {n_masked} / blind {n_blind} != max(1, round(f * {n_truth_objects}))")


def check_equal_arrays(what: str, got: np.ndarray, want: np.ndarray) -> None:
    expect(got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want),
           f"{what}: arrays differ")


# --- predictions and batching ----------------------------------------------


def check_prediction(data: np.ndarray, counts: np.ndarray, atol=1e-9) -> None:
    """Non-negative; a counted class sums to 1, an uncounted one is exactly 0."""
    expect(not np.any(data < 0), "prediction has negative mass")
    sums = data.sum(axis=(2, 3))
    present = counts > 0
    if present.any():
        err = float(np.abs(sums[present] - 1.0).max())
        expect(err <= atol, f"present class sums off 1 by {err:.3g}")
    expect(not np.any(data[~present]), "absent class carries mass")


def check_batching(batched: float, per_graph, rows, rtol=1e-12) -> None:
    """Block-diagonal batching: batched MSE is the row-weighted mean of per-graph MSEs."""
    want = sum(l * r for l, r in zip(per_graph, rows)) / sum(rows)
    expect(abs(batched - want) <= rtol * abs(want),
           f"batched loss {batched!r} != row-weighted mean {want!r}")


# --- layouts and images -----------------------------------------------------


def layout_oracle(stack: np.ndarray, threshold: float) -> np.ndarray:
    """Cell class by a first-wins scan over classes, EMPTY below the threshold."""
    best = np.zeros(stack.shape[1:], dtype=np.int64)
    peak = stack[0].copy()
    for c in range(1, stack.shape[0]):
        better = stack[c] > peak
        best[better] = c
        peak[better] = stack[c][better]
    return np.where(peak >= threshold, best, EMPTY)


def placement_oracle(stack: np.ndarray, blind: dict[int, int], frame):
    """[(class, (i, j), (x, y), low_support)] for blind instances, top-k per class.

    Instance k of class c takes the k-th cell by (descending mass, row-major
    index); past the non-zero cells it cycles over them again, flagged.
    """
    s = stack.shape[1]
    lo_x, lo_y, hi_x, hi_y = frame
    out = []
    for c in sorted(blind):
        flat = [float(v) for v in stack[c].ravel()]
        order = sorted(range(len(flat)), key=lambda i: (-flat[i], i))
        support = sum(1 for v in flat if v != 0.0)
        for k in range(blind[c]):
            idx = order[k] if k < support else order[(k - support) % max(1, support)]
            i, j = divmod(idx, s)
            xy = (lo_x + (i + 0.5) * (hi_x - lo_x) / s, lo_y + (j + 0.5) * (hi_y - lo_y) / s)
            out.append((c, (i, j), xy, k >= support))
    return out


def check_layout(cells: np.ndarray, placements, stack: np.ndarray, threshold: float,
                 blind: dict[int, int], frame, atol=1e-9) -> None:
    """Layout cells and blind placements against the argmax / top-k oracles.

    placements is a list of (class, (i, j), (x, y), low_support).
    """
    expect(np.array_equal(cells, layout_oracle(stack, threshold)), "layout cells != oracle")
    want = placement_oracle(stack, blind, frame)
    expect(len(placements) == len(want), f"{len(placements)} placements != {len(want)}")
    for got, exp in zip(placements, want):
        ok = (int(got[0]) == exp[0] and tuple(got[1]) == exp[1] and bool(got[3]) == exp[3]
              and max(abs(a - b) for a, b in zip(got[2], exp[2])) <= atol)
        expect(ok, f"placement {got} != oracle {exp}")


_NETPBM = re.compile(rb"(P[56])\s(\d+)\s(\d+)\s(\d+)\s")


def check_netpbm(data: bytes, magic: str, grid: int) -> None:
    """Binary PPM (P6) or PGM (P5) of a grid x grid image with maxval 255."""
    m = _NETPBM.match(data)
    expect(m is not None, "no netpbm header")
    channels = 3 if magic == "P6" else 1
    header = (m.group(1).decode(), int(m.group(2)), int(m.group(3)), int(m.group(4)))
    expect(header == (magic, grid, grid, 255), f"header {header} != {(magic, grid, grid, 255)}")
    expect(len(data) - m.end() == channels * grid * grid,
           f"{len(data) - m.end()} pixel bytes != {channels * grid * grid}")
