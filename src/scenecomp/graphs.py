"""Layered scene graphs: ground truth, augmented, and belief variants.

A graph is a forest of building -> room -> {object, blind} nodes. Graphs are
immutable after construction; every mutating operation returns a new graph.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .catalog import ClassCatalog
from .errors import (
    DanglingEdgeError,
    DuplicateIdError,
    EmptyGraphError,
    LayerViolationError,
    MultipleParentsError,
    NegativeCountError,
    SceneCompError,
    UnknownClassError,
    UnknownRoomError,
    UnreadableInputError,
    is_json_int,
    is_json_number,
    read_json,
)

BUILDING = "building"
ROOM = "room"
OBJECT = "object"
BLIND = "blind"

LAYERS = (BUILDING, ROOM, OBJECT, BLIND)

GROUND_TRUTH = "ground_truth"
AUGMENTED = "augmented"
BELIEF = "belief"

KINDS = (GROUND_TRUTH, AUGMENTED, BELIEF)

# allowed parent-layer -> child-layer edges
_ALLOWED_EDGES = {(BUILDING, ROOM), (ROOM, OBJECT), (ROOM, BLIND)}


@dataclass(frozen=True)
class SceneNode:
    """A node in the layered scene graph.

    Blind nodes carry a class but no position until the layout stage places
    them; the unset state is an explicit None, never NaN-in-data.
    """

    id: int
    layer: str
    class_index: int | None = None
    position: tuple[float, float, float] | None = None
    dimensions: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class SceneGraph:
    nodes: tuple[SceneNode, ...]
    edges: tuple[tuple[int, int], ...]
    kind: str
    catalog: ClassCatalog

    def node(self, node_id: int) -> SceneNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise DanglingEdgeError(f"no node with id {node_id}") from None

    @property
    def _by_id(self) -> dict[int, SceneNode]:
        # cached on first use; frozen dataclass so stash via object.__setattr__
        cache = self.__dict__.get("_by_id_cache")
        if cache is None:
            cache = {n.id: n for n in self.nodes}
            object.__setattr__(self, "_by_id_cache", cache)
        return cache

    def nodes_in_layer(self, layer: str) -> list[SceneNode]:
        return [n for n in self.nodes if n.layer == layer]


def build_graph(
    nodes: list[SceneNode] | tuple[SceneNode, ...],
    edges: list[tuple[int, int]],
    kind: str,
    catalog: ClassCatalog,
) -> SceneGraph:
    """Validate and assemble a scene graph.

    Raises on duplicate ids, dangling edge endpoints, edges outside the
    building->room->object/blind hierarchy, and multiple parents.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown graph kind: {kind!r}")

    by_id: dict[int, SceneNode] = {}
    for n in nodes:
        if n.id in by_id:
            raise DuplicateIdError(f"duplicate node id {n.id}")
        by_id[n.id] = n

    for n in nodes:
        if n.layer not in LAYERS:
            raise LayerViolationError(f"node {n.id}: unknown layer {n.layer!r}")
        if n.layer in (OBJECT, BLIND):
            if n.class_index is None:
                raise UnknownClassError(f"node {n.id}: {n.layer} node needs a class")
            if not 0 <= n.class_index < catalog.n:
                raise UnknownClassError(
                    f"node {n.id}: class index {n.class_index} outside catalog"
                )
        else:
            if n.class_index is not None:
                raise LayerViolationError(
                    f"node {n.id}: {n.layer} nodes carry no object class"
                )
        if n.layer == OBJECT:
            if n.position is None or not all(math.isfinite(v) for v in n.position):
                raise LayerViolationError(f"node {n.id}: object needs a finite position")
            if n.dimensions is None or not all(
                math.isfinite(v) and v > 0 for v in n.dimensions
            ):
                raise LayerViolationError(
                    f"node {n.id}: object needs strictly positive dimensions"
                )
        if n.layer == BLIND:
            if kind != BELIEF:
                raise LayerViolationError(
                    f"node {n.id}: blind nodes only allowed in belief graphs"
                )
            if n.position is not None:
                raise LayerViolationError(
                    f"node {n.id}: blind node position must be unset until placed"
                )

    seen_parent: dict[int, int] = {}
    for parent, child in edges:
        if parent not in by_id:
            raise DanglingEdgeError(f"edge ({parent},{child}): unknown parent")
        if child not in by_id:
            raise DanglingEdgeError(f"edge ({parent},{child}): unknown child")
        pair = (by_id[parent].layer, by_id[child].layer)
        if pair not in _ALLOWED_EDGES:
            raise LayerViolationError(
                f"edge ({parent},{child}): forbidden {pair[0]}->{pair[1]}"
            )
        if child in seen_parent:
            raise MultipleParentsError(f"node {child} has more than one parent")
        seen_parent[child] = parent

    for n in nodes:
        if n.layer in (ROOM, OBJECT, BLIND) and n.id not in seen_parent:
            raise DanglingEdgeError(f"node {n.id} ({n.layer}) has no parent")

    return SceneGraph(tuple(nodes), tuple(tuple(e) for e in edges), kind, catalog)


def rooms_of(g: SceneGraph) -> list[SceneNode]:
    """All room nodes in ascending id order."""
    return sorted(g.nodes_in_layer(ROOM), key=lambda n: n.id)


def children_of(g: SceneGraph, room_id: int, layer: str | None = None) -> list[SceneNode]:
    """Direct children of a room, optionally filtered to one layer."""
    node = g.node(room_id)
    if node.layer != ROOM:
        raise UnknownRoomError(f"node {room_id} is not a room")
    out = []
    for parent, child in g.edges:
        if parent == room_id:
            c = g.node(child)
            if layer is None or c.layer == layer:
                out.append(c)
    return sorted(out, key=lambda n: n.id)


def augment(
    g: SceneGraph,
    removal_fraction: float = 0.25,
    seed: int = 0,
) -> SceneGraph:
    """Delete ceil(fraction * |objects|) object nodes uniformly at random.

    Rooms and buildings always survive; deterministic for a given seed.
    """
    if not 0 < removal_fraction < 1:
        raise ValueError("removal_fraction must lie in (0, 1)")
    objects = sorted((n.id for n in g.nodes_in_layer(OBJECT)))
    if not objects:
        raise EmptyGraphError("graph has no object nodes to remove")
    k = math.ceil(removal_fraction * len(objects))
    removed = set(random.Random(seed).sample(objects, k))
    nodes = [n for n in g.nodes if n.id not in removed]
    edges = [e for e in g.edges if e[0] not in removed and e[1] not in removed]
    return build_graph(nodes, edges, AUGMENTED, g.catalog)


def make_belief_graph(
    g: SceneGraph,
    blind_specs: list[tuple[int, int, int]] | None = None,
) -> SceneGraph:
    """Append blind nodes under rooms; specs are (room_id, class_index, count)."""
    blind_specs = blind_specs or []
    next_id = max((n.id for n in g.nodes), default=0) + 1
    nodes = list(g.nodes)
    edges = list(g.edges)
    for room_id, class_index, count in blind_specs:
        if room_id not in g._by_id:
            raise UnknownRoomError(f"no room with id {room_id}")
        room = g.node(room_id)
        if room.layer != ROOM:
            raise UnknownRoomError(f"node {room_id} is not a room")
        if not 0 <= class_index < g.catalog.n:
            raise UnknownClassError(f"class index {class_index} outside catalog")
        if count < 0:
            raise NegativeCountError(f"negative blind count for room {room_id}")
        for _ in range(count):
            nodes.append(SceneNode(next_id, BLIND, class_index))
            edges.append((room_id, next_id))
            next_id += 1
    return build_graph(nodes, edges, BELIEF, g.catalog)


# --- JSON serialization ---------------------------------------------------


def graph_to_dict(g: SceneGraph) -> dict:
    nodes = []
    for n in g.nodes:
        nodes.append(
            {
                "id": n.id,
                "layer": n.layer,
                "class": None if n.class_index is None else g.catalog.label(n.class_index),
                "position": None if n.position is None else list(n.position),
                "dimensions": None if n.dimensions is None else list(n.dimensions),
            }
        )
    return {
        "catalog": list(g.catalog.labels),
        "nodes": nodes,
        "edges": [list(e) for e in g.edges],
        "kind": g.kind,
    }


_GRAPH_KEYS = ("catalog", "nodes", "edges", "kind")


def _coords(nd: dict, key: str) -> tuple[float, ...] | None:
    v = nd.get(key)
    if v is None:
        return None
    if not (isinstance(v, list) and len(v) == 3 and all(map(is_json_number, v))):
        raise UnreadableInputError(f"graph node {nd['id']}: {key} {v!r} is not a list of 3 numbers")
    return tuple(float(x) for x in v)


def graph_from_dict(d) -> SceneGraph:
    """The graph that graph_to_dict wrote, checked by build_graph.

    A document not of that shape raises UnreadableInputError: one that is
    not an object or lacks a key; a catalog that is not a list of distinct
    non-empty labels; nodes or edges that are not lists; a node that is not
    an object with an int id and a string layer; a position or dimensions
    that are not 3 numbers; an edge that is not a pair of ints; or an
    unknown kind.
    """
    if not isinstance(d, dict):
        raise UnreadableInputError("a graph is not a JSON object")
    missing = [k for k in _GRAPH_KEYS if k not in d]
    if missing:
        raise UnreadableInputError(f"a graph lacks the keys {missing}")
    labels, nodes, edges, kind = (d[k] for k in _GRAPH_KEYS)
    if not (
        isinstance(labels, list)
        and all(isinstance(label, str) and label for label in labels)
        and len(set(labels)) == len(labels)
    ):
        raise UnreadableInputError("a graph's catalog must list distinct non-empty class labels")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise UnreadableInputError("a graph's nodes and edges must be lists")
    if kind not in KINDS:
        raise UnreadableInputError(f"unknown graph kind {kind!r}")
    catalog = ClassCatalog(tuple(labels))
    out = []
    for nd in nodes:
        if not (isinstance(nd, dict) and is_json_int(nd.get("id")) and isinstance(nd.get("layer"), str)):
            raise UnreadableInputError(f"graph node {nd!r} is not an object with an int id and a layer")
        cls = nd.get("class")
        out.append(
            SceneNode(
                id=nd["id"],
                layer=nd["layer"],
                class_index=None if cls is None else catalog.index(cls),
                position=_coords(nd, "position"),
                dimensions=_coords(nd, "dimensions"),
            )
        )
    if not all(isinstance(e, list) and len(e) == 2 and all(map(is_json_int, e)) for e in edges):
        raise UnreadableInputError("each graph edge must be a pair of int node ids")
    return build_graph(out, [tuple(e) for e in edges], kind, catalog)


def save_graph(g: SceneGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(graph_to_dict(g), f, indent=1)


def load_graph(path) -> SceneGraph:
    """The graph in the JSON file at path; a graph that is malformed or fails
    build_graph's checks raises UnreadableInputError naming the file."""
    doc = read_json(path)
    try:
        return graph_from_dict(doc)
    except SceneCompError as e:
        raise UnreadableInputError(f"graph file {path}: {e}") from e
