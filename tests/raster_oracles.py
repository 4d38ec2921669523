"""Reference implementations that the rasterization tests compare against.

`loop_rasterize` and `object_footprint` are the rasterizer as it was before
all objects were rasterized in one array pass: a Python loop that builds one
S x S footprint per object, with each room's cell edges from its own
`np.linspace` calls. `two_pass_build_sample` is `dataset.build_sample` as it
was before a sample was built in one rasterization pass: it rasterizes the
target from the graph and the input from the belief graph, both within
frames pinned from the graph. The package's one-pass code must give their
bits.
"""
import numpy as np

from scenecomp.dataset import BsgSample
from scenecomp.graphs import (
    BELIEF,
    BLIND,
    OBJECT,
    ROOM,
    SceneGraph,
    SceneNode,
    build_graph,
    children_of,
    rooms_of,
)
from scenecomp.raster import DEFAULT_GRID_SIZE, Frame, HeatmapSet, ObjectCounts, room_frame


def frame_edges(frame: Frame, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The cell edges of one frame: one np.linspace call per axis."""
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
    ex, ey = frame_edges(frame, S)
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


def loop_rasterize(
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


def two_pass_build_sample(g: SceneGraph, masked_ids, grid_size: int = DEFAULT_GRID_SIZE) -> BsgSample:
    """The sample of g with the objects of masked_ids turned into blind nodes.

    Counts on the belief graph equal counts on the input graph by
    construction (each masked object becomes one blind node).
    """
    masked_ids = set(masked_ids)
    # Pin frames from the full graph so input and target share geometry.
    frames = {r.id: room_frame(g, r.id) for r in g.nodes_in_layer(ROOM)}
    target, _ = loop_rasterize(g, grid_size, frames_override=frames)

    parent = {child: p for p, child in g.edges}
    masked = []
    next_id = max(n.id for n in g.nodes) + 1
    nodes = []
    edges = [e for e in g.edges if e[1] not in masked_ids]
    for n in g.nodes:
        if n.id in masked_ids:
            masked.append((parent[n.id], n.class_index, n.id))
            nodes.append(SceneNode(next_id, BLIND, n.class_index))
            edges.append((parent[n.id], next_id))
            next_id += 1
        else:
            nodes.append(n)
    belief = build_graph(nodes, edges, BELIEF, g.catalog)
    input_heatmaps, counts = loop_rasterize(belief, grid_size, frames_override=frames)
    return BsgSample(belief, input_heatmaps, counts, target, tuple(sorted(masked)), g)
