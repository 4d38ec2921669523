"""Training-sample generation: blind-node masking, synthetic scenes, splits.

A sample pairs a belief graph (partial heatmaps + full counts) with the
ground-truth heatmaps the model should recover. Synthetic scenes stand in
for large annotated 3D datasets at desk scale.
"""
from __future__ import annotations

import base64
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import ClassCatalog
from .errors import (
    BadRatiosError,
    ConfigMismatchError,
    EmptyGraphError,
    UnreadableInputError,
    read_json,
)
from .graphs import (
    BELIEF,
    BLIND,
    BUILDING,
    GROUND_TRUTH,
    OBJECT,
    ROOM,
    SceneGraph,
    SceneNode,
    build_graph,
    graph_from_dict,
    graph_to_dict,
)
from .raster import DEFAULT_GRID_SIZE, Frame, HeatmapSet, ObjectCounts, rasterize, room_frame

# Version 2 stores only the heatmap planes that are not all zero.
FORMAT_VERSION = 2


def splitmix64(seed: int, index: int) -> int:
    """Derive a per-item seed from a master seed; splitmix64 finalizer."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


@dataclass(frozen=True)
class BsgSample:
    """One training sample: belief graph, its inputs, and the target."""

    graph: SceneGraph
    input_heatmaps: HeatmapSet
    counts: ObjectCounts
    target_heatmaps: HeatmapSet
    masked: tuple[tuple[int, int, int], ...]  # (room_id, class_index, node_id)


def make_sample(
    g: SceneGraph,
    blind_fraction: float = 0.25,
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> BsgSample:
    """Mask a random subset of objects as blind nodes and build the sample.

    At least one instance is always masked so the prediction target is
    nontrivial. Counts on the belief graph equal counts on the input graph
    by construction (each masked object becomes one blind node).
    """
    objects = sorted(n.id for n in g.nodes_in_layer(OBJECT))
    if not objects:
        raise EmptyGraphError("cannot make a sample from a graph without objects")
    k = max(1, round(blind_fraction * len(objects)))
    k = min(k, len(objects))
    masked_ids = set(random.Random(seed).sample(objects, k))

    # Pin frames from the full graph so input and target share geometry.
    frames = {r.id: room_frame(g, r.id) for r in g.nodes_in_layer(ROOM)}
    target, _ = rasterize(g, grid_size, frames_override=frames)

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
    input_heatmaps, counts = rasterize(belief, grid_size, frames_override=frames)
    return BsgSample(belief, input_heatmaps, counts, target, tuple(sorted(masked)))


# --- synthetic scenes -----------------------------------------------------

# Anchor kinds: "wall" (inset against a random wall), "wall_mid" (against a
# wall but inside the middle half of its length, away from corners),
# "center", "anywhere", or an object class name already placed in the room.
@dataclass(frozen=True)
class PlacementRule:
    class_name: str
    count_range: tuple[int, int]
    anchor: str = "anywhere"
    offset_scale: float = 0.8


@dataclass(frozen=True)
class SceneTemplate:
    name: str
    rules: tuple[PlacementRule, ...]

    def validate(self, catalog: ClassCatalog) -> None:
        for r in self.rules:
            catalog.index(r.class_name)
            if r.anchor not in ("wall", "wall_mid", "center", "anywhere"):
                catalog.index(r.anchor)


# Object AABB extents in meters (dx, dy, dz); fallback below.
_SIZES = {
    "bed": (2.0, 1.6, 0.6),
    "sofa": (2.0, 0.9, 0.8),
    "table": (1.4, 0.9, 0.75),
    "desk": (1.4, 0.7, 0.75),
    "chair": (0.5, 0.5, 0.9),
    "lamp": (0.3, 0.3, 1.5),
    "plant": (0.4, 0.4, 1.0),
    "tv": (1.2, 0.2, 0.7),
    "refrigerator": (0.7, 0.7, 1.8),
    "stove": (0.6, 0.6, 0.9),
    "sink": (0.6, 0.5, 0.3),
    "toilet": (0.4, 0.7, 0.8),
    "shower": (0.9, 0.9, 2.0),
    "bathtub": (1.7, 0.8, 0.6),
    "mirror": (0.8, 0.1, 1.0),
    "cabinet": (0.9, 0.5, 1.0),
    "shelf": (0.8, 0.3, 1.2),
    "bookshelf": (0.9, 0.3, 1.8),
    "wardrobe": (1.2, 0.6, 2.0),
    "dresser": (1.0, 0.5, 0.9),
    "nightstand": (0.5, 0.4, 0.6),
    "rug": (2.0, 1.4, 0.02),
    "washing_machine": (0.6, 0.6, 0.85),
}
_DEFAULT_SIZE = (0.5, 0.5, 0.5)


def object_size(class_name: str) -> tuple[float, float, float]:
    return _SIZES.get(class_name, _DEFAULT_SIZE)


def default_templates() -> tuple[SceneTemplate, ...]:
    """Room archetypes with placements consistent with the default ontology."""
    return (
        SceneTemplate(
            "kitchen",
            (
                PlacementRule("refrigerator", (1, 1), "wall"),
                PlacementRule("stove", (1, 1), "wall_mid"),
                PlacementRule("sink", (1, 1), "wall"),
                PlacementRule("cabinet", (1, 3), "wall"),
                PlacementRule("microwave", (0, 1), "cabinet", 0.5),
                PlacementRule("kettle", (0, 1), "cabinet", 0.5),
                PlacementRule("toaster", (0, 1), "cabinet", 0.5),
                PlacementRule("table", (0, 1), "center"),
                PlacementRule("chair", (0, 3), "table", 0.9),
                PlacementRule("trash_can", (0, 1), "anywhere"),
            ),
        ),
        SceneTemplate(
            "bedroom",
            (
                PlacementRule("bed", (1, 1), "wall"),
                PlacementRule("nightstand", (0, 2), "bed", 1.2),
                PlacementRule("lamp", (0, 1), "nightstand", 0.4),
                PlacementRule("wardrobe", (0, 1), "wall"),
                PlacementRule("dresser", (0, 1), "wall"),
                PlacementRule("mirror", (0, 1), "wall"),
                PlacementRule("curtain", (0, 1), "wall"),
                PlacementRule("rug", (0, 1), "center"),
                PlacementRule("plant", (0, 1), "wall"),
            ),
        ),
        SceneTemplate(
            "living_room",
            (
                PlacementRule("sofa", (1, 1), "wall"),
                PlacementRule("tv", (0, 1), "wall_mid"),
                PlacementRule("table", (0, 1), "center"),
                PlacementRule("chair", (0, 2), "table", 0.9),
                PlacementRule("cushion", (0, 2), "sofa", 0.5),
                PlacementRule("lamp", (0, 1), "sofa", 0.8),
                PlacementRule("plant", (0, 2), "wall"),
                PlacementRule("rug", (0, 1), "center"),
                PlacementRule("picture", (0, 2), "wall"),
                PlacementRule("clock", (0, 1), "wall"),
            ),
        ),
        SceneTemplate(
            "office",
            (
                PlacementRule("desk", (1, 1), "wall"),
                PlacementRule("chair", (1, 1), "desk", 0.6),
                PlacementRule("monitor", (0, 1), "desk", 0.4),
                PlacementRule("lamp", (0, 1), "desk", 0.5),
                PlacementRule("bookshelf", (0, 2), "wall"),
                PlacementRule("shelf", (0, 1), "wall"),
                PlacementRule("plant", (0, 1), "wall"),
                PlacementRule("trash_can", (0, 1), "desk", 0.8),
            ),
        ),
        SceneTemplate(
            "bathroom",
            (
                PlacementRule("toilet", (1, 1), "wall"),
                PlacementRule("sink", (1, 1), "wall"),
                PlacementRule("mirror", (0, 1), "sink", 0.3),
                PlacementRule("shower", (0, 1), "wall"),
                PlacementRule("bathtub", (0, 1), "wall"),
                PlacementRule("trash_can", (0, 1), "anywhere"),
            ),
        ),
        SceneTemplate(
            "dining_room",
            (
                PlacementRule("table", (1, 1), "center"),
                PlacementRule("chair", (2, 4), "table", 1.0),
                PlacementRule("cabinet", (0, 1), "wall"),
                PlacementRule("lamp", (0, 1), "table", 0.4),
                PlacementRule("picture", (0, 1), "wall"),
                PlacementRule("plant", (0, 1), "wall"),
            ),
        ),
    )


def template_by_name(name: str) -> SceneTemplate:
    for t in default_templates():
        if t.name == name:
            return t
    raise KeyError(f"no default template named {name!r}")


def _propose_position(
    rule: PlacementRule,
    frame: Frame,
    size: tuple[float, float, float],
    placed: dict[str, list[tuple[float, float]]],
    rng: random.Random,
) -> tuple[float, float] | None:
    lo_x, lo_y, hi_x, hi_y = frame
    mx, my = size[0] / 2, size[1] / 2
    if hi_x - lo_x <= 2 * mx or hi_y - lo_y <= 2 * my:
        return None
    anchor = rule.anchor
    if anchor in ("wall", "wall_mid"):
        side = rng.randrange(4)
        frac = (0.25, 0.75) if anchor == "wall_mid" else (0.0, 1.0)
        if side in (0, 1):  # left / right wall, slide along y
            y0 = lo_y + my + frac[0] * (hi_y - lo_y - 2 * my)
            y1 = lo_y + my + frac[1] * (hi_y - lo_y - 2 * my)
            y = rng.uniform(y0, y1)
            x = lo_x + mx if side == 0 else hi_x - mx
        else:  # bottom / top wall, slide along x
            x0 = lo_x + mx + frac[0] * (hi_x - lo_x - 2 * mx)
            x1 = lo_x + mx + frac[1] * (hi_x - lo_x - 2 * mx)
            x = rng.uniform(x0, x1)
            y = lo_y + my if side == 2 else hi_y - my
        return (x, y)
    if anchor == "center":
        cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
        return (
            rng.uniform(cx - (hi_x - lo_x) / 4, cx + (hi_x - lo_x) / 4),
            rng.uniform(cy - (hi_y - lo_y) / 4, cy + (hi_y - lo_y) / 4),
        )
    if anchor == "anywhere":
        return (rng.uniform(lo_x + mx, hi_x - mx), rng.uniform(lo_y + my, hi_y - my))
    anchors = placed.get(anchor)
    if not anchors:
        return (rng.uniform(lo_x + mx, hi_x - mx), rng.uniform(lo_y + my, hi_y - my))
    ax, ay = rng.choice(anchors)
    for _ in range(20):
        x = ax + rng.gauss(0.0, rule.offset_scale)
        y = ay + rng.gauss(0.0, rule.offset_scale)
        if lo_x + mx <= x <= hi_x - mx and lo_y + my <= y <= hi_y - my:
            return (x, y)
    return None


def generate_synthetic_scene(
    templates: tuple[SceneTemplate, ...],
    n_rooms: int,
    seed: int,
    catalog: ClassCatalog,
) -> SceneGraph:
    """One building with n_rooms template-driven rooms; deterministic per seed.

    A placement that does not fit its room is skipped.
    """
    if not templates:
        raise ValueError("need at least one template")
    for t in templates:
        t.validate(catalog)
    rng = random.Random(splitmix64(seed, 0))
    nodes = [SceneNode(0, BUILDING)]
    edges: list[tuple[int, int]] = []
    next_id = 1
    x_cursor = 0.0
    for _ in range(n_rooms):
        tpl = rng.choice(templates)
        w = rng.uniform(4.0, 8.0)
        h = rng.uniform(4.0, 8.0)
        frame = (x_cursor, 0.0, x_cursor + w, h)
        x_cursor += w + 1.0
        room_id = next_id
        next_id += 1
        nodes.append(
            SceneNode(
                room_id,
                ROOM,
                position=((frame[0] + frame[2]) / 2, h / 2, 1.35),
                dimensions=(w, h, 2.7),
            )
        )
        edges.append((0, room_id))
        placed: dict[str, list[tuple[float, float]]] = {}
        for rule in tpl.rules:
            count = rng.randint(*rule.count_range)
            size = object_size(rule.class_name)
            for _ in range(count):
                pos = _propose_position(rule, frame, size, placed, rng)
                if pos is None:
                    continue
                nodes.append(
                    SceneNode(
                        next_id,
                        OBJECT,
                        class_index=catalog.index(rule.class_name),
                        position=(pos[0], pos[1], size[2] / 2),
                        dimensions=size,
                    )
                )
                edges.append((room_id, next_id))
                next_id += 1
                placed.setdefault(rule.class_name, []).append(pos)
    return build_graph(nodes, edges, GROUND_TRUTH, catalog)


# --- splits ---------------------------------------------------------------


def split_dataset(samples, ratios=(0.8, 0.1, 0.1), seed: int = 0):
    """Disjoint, exhaustive shuffle-split using largest-remainder rounding."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatiosError(f"ratios must be non-negative and sum to 1: {ratios}")
    idx = list(range(len(samples)))
    random.Random(seed).shuffle(idx)
    n = len(samples)
    quotas = [r * n for r in ratios]
    counts = [math.floor(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    for _ in range(n - sum(counts)):
        j = max(range(3), key=lambda i: (remainders[i], -i))
        counts[j] += 1
        remainders[j] = -1.0
    out = []
    start = 0
    for c in counts:
        out.append([samples[i] for i in idx[start : start + c]])
        start += c
    return tuple(out)


# --- serialization --------------------------------------------------------


def heatmaps_to_dict(h: HeatmapSet) -> dict:
    """A HeatmapSet as JSON-ready data that keeps only its non-zero planes.

    `planes` lists, ascending, the flat index room * n_classes + class of
    each (room, class) plane with any bit set, so a plane of -0.0 is kept
    and reads back bitwise; `data_b64` holds those planes, in that order,
    as little-endian float64.
    """
    n_rooms, n_classes, rows, cols = h.data.shape
    flat = np.ascontiguousarray(h.data, dtype="<f8").reshape(n_rooms * n_classes, rows * cols)
    planes = np.flatnonzero(flat.view("<i8").any(axis=1))
    return {
        "room_ids": list(h.room_ids),
        "grid_size": h.grid_size,
        "room_frames": [list(f) for f in h.room_frames],
        "shape": list(h.data.shape),
        "planes": planes.tolist(),
        "data_b64": base64.b64encode(flat[planes].tobytes()).decode("ascii"),
    }


_HEATMAP_KEYS = ("room_ids", "grid_size", "room_frames", "shape", "planes", "data_b64")


def heatmaps_from_dict(d: dict) -> HeatmapSet:
    """The HeatmapSet that heatmaps_to_dict wrote: its planes scattered into zeros.

    Data that does not describe one consistent set, or values that no heatmap
    holds (`HeatmapSet.validate`: non-negative, each plane summing to 1 or all
    zero, hence finite), raise UnreadableInputError.
    """
    if not isinstance(d, dict):
        raise UnreadableInputError("heatmaps are not a JSON object")
    missing = [k for k in _HEATMAP_KEYS if k not in d]
    if missing:
        raise UnreadableInputError(f"heatmaps lack the keys {missing}")
    try:
        room_ids = tuple(d["room_ids"])
        grid_size = int(d["grid_size"])
        room_frames = tuple(tuple(f) for f in d["room_frames"])
        shape = tuple(int(n) for n in d["shape"])
        raw = base64.b64decode(d["data_b64"])
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise UnreadableInputError(f"unreadable heatmaps: {e}") from e
    # an exact type test: bool is a subclass of int
    if not all(type(r) is int for r in room_ids) or len(set(room_ids)) != len(room_ids):
        raise UnreadableInputError(f"heatmap room ids {list(room_ids)} are not distinct ints")
    if not all(
        len(f) == 4
        and all(type(v) in (int, float) and math.isfinite(v) for v in f)
        and f[0] < f[2] and f[1] < f[3]
        for f in room_frames
    ):
        raise UnreadableInputError(
            "each heatmap room frame must be [lo_x, lo_y, hi_x, hi_y] of finite "
            "numbers with lo_x < hi_x and lo_y < hi_y"
        )
    if (
        len(shape) != 4
        or min(shape) < 0
        or not shape[0] == len(room_ids) == len(room_frames)
        or shape[2:] != (grid_size, grid_size)
    ):
        raise UnreadableInputError(
            f"heatmaps of shape {list(shape)} do not fit {len(room_ids)} rooms "
            f"and {len(room_frames)} frames at grid size {grid_size}"
        )
    planes = d["planes"]
    n_planes = shape[0] * shape[1]
    if not (
        isinstance(planes, list)
        and all(type(p) is int for p in planes)
        and planes == sorted(set(planes))
        and all(0 <= p < n_planes for p in planes)
    ):
        raise UnreadableInputError(
            f"heatmap planes must be strictly increasing indices below {n_planes}"
        )
    plane_size = grid_size * grid_size
    if len(raw) != len(planes) * plane_size * 8:
        raise UnreadableInputError(
            f"heatmap data holds {len(raw)} bytes, not the {len(planes) * plane_size * 8} "
            f"of {len(planes)} planes"
        )
    stored = np.frombuffer(raw, "<f8").reshape(len(planes), plane_size)
    # HeatmapSet.validate's test on the stored planes alone: the others are zero
    if np.any(stored < 0):
        raise UnreadableInputError("heatmap entries must be non-negative")
    sums = stored.sum(axis=1)
    if not np.all(np.isclose(sums, 1.0, atol=1e-9) | (sums == 0.0)):
        raise UnreadableInputError("each (room, class) grid must sum to 1 or be all zero")
    data = np.zeros(shape)
    data.reshape(n_planes, plane_size)[planes] = stored
    return HeatmapSet(data, room_ids, grid_size, room_frames)


def sample_to_dict(s: BsgSample) -> dict:
    return {
        "version": FORMAT_VERSION,
        "graph": graph_to_dict(s.graph),
        "input_heatmaps": heatmaps_to_dict(s.input_heatmaps),
        "target_heatmaps": heatmaps_to_dict(s.target_heatmaps),
        "counts": {
            "room_ids": list(s.counts.room_ids),
            "data": [[int(v) for v in row] for row in s.counts.data],
        },
        "masked": [list(m) for m in s.masked],
    }


def sample_from_dict(d: dict) -> BsgSample:
    counts = ObjectCounts(
        np.array(d["counts"]["data"], dtype=np.int64), tuple(d["counts"]["room_ids"])
    )
    return BsgSample(
        graph_from_dict(d["graph"]),
        heatmaps_from_dict(d["input_heatmaps"]),
        counts,
        heatmaps_from_dict(d["target_heatmaps"]),
        tuple(tuple(m) for m in d["masked"]),
    )


def save_dataset(
    samples: list[BsgSample],
    splits: tuple[list[BsgSample], list[BsgSample], list[BsgSample]],
    out_dir,
    grid_size: int,
    catalog: ClassCatalog,
    master_seed: int,
) -> None:
    """Write one JSON per sample plus a manifest with split membership."""
    out_dir = Path(out_dir)
    (out_dir / "samples").mkdir(parents=True, exist_ok=True)
    names = {}
    for i, s in enumerate(samples):
        name = f"sample_{i:05d}.json"
        names[id(s)] = name
        # json.dumps encodes in C; json.dump would use the pure-Python encoder
        (out_dir / "samples" / name).write_text(json.dumps(sample_to_dict(s)), encoding="utf-8")
    manifest = {
        "version": FORMAT_VERSION,
        "grid_size": grid_size,
        "catalog_hash": catalog.hash(),
        "master_seed": master_seed,
        "splits": {
            split_name: [names[id(s)] for s in split]
            for split_name, split in zip(("train", "val", "test"), splits)
        },
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def _check_version(doc, what: str) -> None:
    if not isinstance(doc, dict):
        raise UnreadableInputError(f"{what} does not hold a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigMismatchError(
            f"{what} has format version {doc.get('version')!r}; only version "
            f"{FORMAT_VERSION} can be read: regenerate the dataset"
        )


def _load_sample(path: Path, grid_size, catalog_hash) -> BsgSample:
    """The sample in path, checked against its manifest's grid size and catalog."""
    doc = read_json(path)
    _check_version(doc, f"dataset sample {path}")
    try:
        s = sample_from_dict(doc)
    except UnreadableInputError as e:
        raise UnreadableInputError(f"dataset sample {path}: {e}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise UnreadableInputError(f"unreadable dataset sample {path}: {e!r}") from e
    # heatmaps_from_dict has matched the last two shape axes to grid_size
    for h in (s.input_heatmaps, s.target_heatmaps):
        if h.grid_size != grid_size:
            raise ConfigMismatchError(
                f"dataset sample {path}: grid size {h.grid_size} "
                f"!= manifest grid size {grid_size}"
            )
    if s.graph.catalog.hash() != catalog_hash:
        raise ConfigMismatchError(f"dataset sample {path}: catalog hash differs from the manifest's")
    return s


def _is_sample_name(name) -> bool:
    return isinstance(name, str) and Path(name).name == name and name.endswith(".json")


def load_dataset(in_dir, splits=None):
    """Read a dataset directory; returns (manifest, {split: [BsgSample]}).

    The manifest is read and checked whole: it must be of format version
    FORMAT_VERSION, and each of its splits a list of sample file names in
    `samples/`. Only the samples of the splits named in `splits` are then
    read and checked (None: every split; a named split the manifest lacks is
    left out of the result). Each must be of format version FORMAT_VERSION
    and of the manifest's grid size and catalog; otherwise
    ConfigMismatchError. A file that is not a well-formed manifest or sample
    raises UnreadableInputError.
    """
    in_dir = Path(in_dir)
    path = in_dir / "manifest.json"
    manifest = read_json(path)
    _check_version(manifest, f"dataset manifest {path}")
    try:
        grid_size, catalog_hash = manifest["grid_size"], manifest["catalog_hash"]
        listed = manifest["splits"].items()
    except (AttributeError, KeyError, TypeError) as e:
        raise UnreadableInputError(f"unreadable dataset manifest {path}: {e!r}") from e
    for split, names in listed:
        if not isinstance(names, list) or not all(map(_is_sample_name, names)):
            raise UnreadableInputError(
                f"dataset manifest {path}: split {split!r} is not a list of sample file names"
            )
    samples = in_dir / "samples"
    return manifest, {
        split: [_load_sample(samples / name, grid_size, catalog_hash) for name in names]
        for split, names in listed
        if splits is None or split in splits
    }
