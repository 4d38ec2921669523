"""Command-line pipeline: generate | train | eval | predict | layout | render | ontology.

Every artifact embeds {S, catalog_hash, seed, tool_version}; another stage's
artifact of another S or catalog is a hard error, never a silent recompute.
Flags override config file values.

`train` and `eval` check the dataset manifest whole but read and check only
the samples they use: `train` the train split and the val split (optional),
`eval` the test split.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import default_catalog
from .dataset import (
    BsgSample,
    heatmaps_from_dict,
    heatmaps_to_dict,
    save_dataset,
    load_dataset,
    synthetic_dataset,
)
from .errors import (
    ConfigMismatchError,
    EmptyDatasetError,
    MissingArtifactError,
    SceneCompError,
    UnreadableInputError,
    is_json_int,
    read_json,
    read_json_object,
)
from .graphs import BELIEF, BLIND, children_of, load_graph
from .layout import (
    default_threshold,
    extract_layout,
    layout_from_dict,
    layout_to_dict,
    place_blind_nodes,
)
from .model import (
    BASE_ONT,
    CompositionModel,
    TrainConfig,
    evaluate_model,
    new_model,
    predict,
    train,
)
from .nn import CONFIG_RULES, ModelConfig, check_config, load_checkpoint, save_checkpoint
from .ontology import (
    EndpointConfig,
    class_affinity,
    default_ontology,
    load_ontology,
    query_llm_ontology,
    save_ontology,
)
from .raster import HeatmapSet, rasterize
from .render import render_heatmaps, render_layout

TOOL_VERSION = __version__


# each config key's rule, as (test, what the value must be): CONFIG_RULES
# for the keys a model or training config holds, and these for the others;
# a value has its annotated type when it is tested
_RULES = {
    **CONFIG_RULES,
    **{key: (lambda v: v > 0, "> 0") for key in ("n_scenes", "n_rooms")},
    "removal_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "blind_fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    # null, the default, is the grid's own threshold
    "threshold": (lambda v: v is None or (math.isfinite(v) and v >= 0), "a finite number >= 0"),
}


@dataclass
class RunConfig:
    dataset_dir: str = "dataset"
    ontology_file: str | None = None
    checkpoint: str = "checkpoint.json"
    output_dir: str = "out"
    variant: str = ModelConfig.variant
    grid_size: int = ModelConfig.grid_size
    seed: int = TrainConfig.seed
    n_scenes: int = 100
    n_rooms: int = 4
    blind_fraction: float = 0.25
    removal_fraction: float = 0.25
    hidden: int = ModelConfig.hidden
    dropout: float = ModelConfig.dropout
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    lr_decay: float = TrainConfig.lr_decay
    threshold: float | None = None

    @staticmethod
    def load(path, overrides: dict) -> "RunConfig":
        hints = typing.get_type_hints(RunConfig)
        values = {}
        if path:
            doc = read_json(path)
            if not isinstance(doc, dict):
                raise ConfigMismatchError(
                    f"config file {path} holds a JSON {type(doc).__name__}, not an object"
                )
            unknown = set(doc) - set(hints)
            if unknown:
                raise ConfigMismatchError(f"unknown config keys: {sorted(unknown)}")
            values.update(doc)
        values.update({k: v for k, v in overrides.items() if v is not None})
        for key, value in values.items():
            allowed = typing.get_args(hints[key]) or (hints[key],)
            if float in allowed and type(value) is int:
                value = values[key] = float(value)
            # an exact type test: bool is a subclass of int
            if type(value) not in allowed:
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ConfigMismatchError(f"config key {key} is {value!r}, not {names}")
        check_config(values, _RULES)
        return RunConfig(**values)


def _stamp(cfg: RunConfig) -> dict:
    return {
        "S": cfg.grid_size,
        "catalog_hash": default_catalog().hash(),
        "seed": cfg.seed,
        "tool_version": TOOL_VERSION,
    }


def _check_stamp(artifact: dict, cfg: RunConfig, what: str) -> None:
    # S and catalog_hash decide whether the artifact's arrays fit this run;
    # seed and tool_version are provenance, so another seed or version is read
    stamp = artifact.get("stamp")
    if not isinstance(stamp, dict):
        stamp = {}
    if stamp.get("S") != cfg.grid_size:
        raise ConfigMismatchError(
            f"{what}: grid size {stamp.get('S')} != configured {cfg.grid_size}"
        )
    if stamp.get("catalog_hash") != default_catalog().hash():
        raise ConfigMismatchError(f"{what}: catalog hash mismatch")


def _hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _file_hash(path) -> str:
    return _hash(Path(path).read_bytes())


def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingArtifactError(f"{what} not found: {p}")
    return p


def _prediction_heatmaps(doc: dict, path, grid_size: int) -> HeatmapSet:
    """The heatmaps of the prediction document read from path.

    `heatmaps_from_dict` checks their layout and that their values are ones
    a prediction can hold (non-negative, each plane summing to 1 or all
    zero, hence finite); their class axis must be the catalog's, and their
    grid size must be grid_size (else ConfigMismatchError), as the stamp's.
    """
    if "heatmaps" not in doc:
        raise UnreadableInputError(f"prediction file {path} holds no heatmaps")
    try:
        heat = heatmaps_from_dict(doc["heatmaps"])
    except UnreadableInputError as e:
        raise UnreadableInputError(f"prediction file {path}: {e}") from e
    n_classes = default_catalog().n
    if heat.data.shape[1] != n_classes:
        raise UnreadableInputError(
            f"prediction file {path}: heatmaps hold {heat.data.shape[1]} classes, "
            f"not the catalog's {n_classes}"
        )
    if heat.grid_size != grid_size:
        raise ConfigMismatchError(
            f"prediction file {path}: heatmaps of grid size {heat.grid_size} "
            f"!= configured {grid_size}"
        )
    return heat


def _blind_counts(doc: dict, heat: HeatmapSet, path) -> dict:
    """The prediction document's blind counts: {str(room id): [(class, count)]}.

    `blind_counts` is optional. When present it must map room ids of the
    heatmaps to objects that map catalog class indices to ints from 0 to
    S * S (no room places more instances than its grid has cells); anything
    else raises UnreadableInputError naming the file.
    """
    blind = doc.get("blind_counts", {})
    rooms = {str(r) for r in heat.room_ids}
    classes = {str(c): c for c in range(default_catalog().n)}
    cells = heat.grid_size**2
    ok = isinstance(blind, dict) and all(
        room in rooms
        and isinstance(per_class, dict)
        and all(ci in classes and is_json_int(n) and 0 <= n <= cells for ci, n in per_class.items())
        for room, per_class in blind.items()
    )
    if not ok:
        raise UnreadableInputError(
            f"prediction file {path}: blind_counts must map the heatmaps' room ids to "
            f"objects of class index (below {len(classes)}) -> int from 0 to {cells}"
        )
    return {
        room: [(classes[ci], n) for ci, n in per_class.items()]
        for room, per_class in blind.items()
    }


def cmd_generate(cfg: RunConfig) -> None:
    # a sample file is the augmented graph and its masked ids: nothing is rasterized here
    samples, splits = synthetic_dataset(
        cfg.seed, cfg.n_scenes, cfg.n_rooms, cfg.removal_fraction, cfg.blind_fraction
    )
    save_dataset(samples, splits, cfg.dataset_dir, cfg.grid_size, default_catalog(), cfg.seed)
    print(
        f"wrote {len(samples)} samples "
        f"({len(splits[0])}/{len(splits[1])}/{len(splits[2])} train/val/test) "
        f"to {cfg.dataset_dir}"
    )


def _load_dataset_checked(cfg: RunConfig, needed: str, *optional: str):
    """{split: [BsgSample]} of the split `needed`, which must hold samples, and
    those of `optional` the manifest lists; the dataset's other samples are
    not read."""
    path = _require(Path(cfg.dataset_dir) / "manifest.json", "dataset manifest")
    manifest, splits = load_dataset(cfg.dataset_dir, (needed, *optional), cfg.grid_size)
    if needed not in splits:
        raise UnreadableInputError(f"dataset manifest {path} has no {needed!r} split")
    if not splits[needed]:
        raise EmptyDatasetError(f"dataset manifest {path} has an empty {needed!r} split")
    if manifest["catalog_hash"] != default_catalog().hash():
        raise ConfigMismatchError("dataset catalog hash mismatch")
    return splits


def _model_config(cfg: RunConfig) -> ModelConfig:
    return ModelConfig(
        variant=cfg.variant,
        n_classes=default_catalog().n,
        grid_size=cfg.grid_size,
        hidden=cfg.hidden,
        dropout=cfg.dropout,
    )


def _ontology(cfg: RunConfig):
    """The configured ontology file's ontology, else the shipped one, of the catalog's classes."""
    if cfg.ontology_file:
        return load_ontology(_require(cfg.ontology_file, "ontology file"), default_catalog())
    onto = default_ontology()
    onto.check_catalog(default_catalog())
    return onto


def cmd_train(cfg: RunConfig) -> None:
    splits = _load_dataset_checked(cfg, "train", "val")
    affinity = class_affinity(_ontology(cfg)) if cfg.variant == BASE_ONT else None
    m = new_model(_model_config(cfg), default_catalog().hash(), cfg.seed, affinity)
    tc = TrainConfig(cfg.epochs, cfg.batch_size, cfg.lr, cfg.lr_decay, cfg.seed)
    m, history = train(m, splits["train"], splits.get("val"), tc)
    save_checkpoint(
        cfg.checkpoint,
        m.config,
        m.params,
        m.stats,
        m.catalog_hash,
        extra={
            "stamp": _stamp(cfg),
            "dataset_manifest_hash": _file_hash(Path(cfg.dataset_dir) / "manifest.json"),
            "history_tail": history[-5:],
        },
    )
    final = history[-1]["train"]
    print(f"trained {cfg.variant} for {len(history)} epochs, final train MSE {final:.6g}")
    print(f"checkpoint written to {cfg.checkpoint}")


def _load_model(cfg: RunConfig, raw: bytes | None = None) -> CompositionModel:
    """The model of cfg's checkpoint, read from raw if given (the file's bytes):
    the whole model, its variant and affinity included, so no ontology is read."""
    path = _require(cfg.checkpoint, "checkpoint")
    config, params, stats, catalog_hash, _, extra = load_checkpoint(path, raw)
    if config.grid_size != cfg.grid_size:
        raise ConfigMismatchError(
            f"checkpoint grid size {config.grid_size} != configured {cfg.grid_size}"
        )
    if catalog_hash != default_catalog().hash():
        raise ConfigMismatchError("checkpoint catalog hash mismatch")
    return CompositionModel(config, params, stats, catalog_hash)


def cmd_eval(cfg: RunConfig) -> None:
    test = _load_dataset_checked(cfg, "test")["test"]
    # one read: the hash names the bytes that are scored
    raw = _require(cfg.checkpoint, "checkpoint").read_bytes()
    m = _load_model(cfg, raw)
    report = evaluate_model(
        m,
        test,
        provenance={
            "checkpoint_hash": _hash(raw),
            "dataset_manifest_hash": _file_hash(Path(cfg.dataset_dir) / "manifest.json"),
        },
    )
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "metrics_report.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"stamp": _stamp(cfg), **report.to_dict()}, f, indent=1)
    print(f"metrics report written to {out}")
    for name in ("wasserstein", "energy", "frobenius"):
        moments = getattr(report, name)
        print(f"  {name}: mean={moments.mean} n={moments.n}")


def cmd_predict(cfg: RunConfig, graph_path) -> None:
    g = load_graph(_require(graph_path, "graph file"))
    if g.kind != BELIEF:
        raise UnreadableInputError("predict expects a belief graph")
    m = _load_model(cfg)
    heat, counts = rasterize(g, cfg.grid_size)
    sample = BsgSample(g, heat, counts, heat, ())
    predicted = predict(m, sample)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "prediction.json"
    blind_counts = {}
    for room in heat.room_ids:
        per_class = {}
        for b in children_of(g, room, BLIND):
            per_class[b.class_index] = per_class.get(b.class_index, 0) + 1
        blind_counts[str(room)] = per_class
    doc = {
        "stamp": _stamp(cfg),
        "heatmaps": heatmaps_to_dict(predicted),
        "counts": {
            "room_ids": list(counts.room_ids),
            "data": [[int(v) for v in row] for row in counts.data],
        },
        "blind_counts": blind_counts,
    }
    out.write_text(json.dumps(doc), encoding="utf-8")
    print(f"prediction written to {out}")


def cmd_layout(cfg: RunConfig, prediction_path) -> None:
    path = _require(prediction_path, "prediction file")
    doc = read_json_object(path)
    _check_stamp(doc, cfg, "prediction file")
    heat = _prediction_heatmaps(doc, path, cfg.grid_size)
    blind = _blind_counts(doc, heat, path)
    threshold = cfg.threshold if cfg.threshold is not None else default_threshold(heat.grid_size)
    rooms_out = []
    for ri, room_id in enumerate(heat.room_ids):
        frame = heat.room_frames[ri]
        grid_stack = heat.data[ri]
        lg = extract_layout(grid_stack, threshold)
        placements = place_blind_nodes(grid_stack, blind.get(str(room_id), []), lg, frame)
        rooms_out.append(layout_to_dict(room_id, lg, placements))
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "layout.json"
    # json.dumps encodes in C; json.dump would use the pure-Python encoder
    out.write_text(json.dumps({"stamp": _stamp(cfg), "rooms": rooms_out}), encoding="utf-8")
    print(f"layout written to {out}")


def cmd_render(cfg: RunConfig, input_path) -> None:
    path = _require(input_path, "render input")
    doc = read_json_object(path)
    out_dir = Path(cfg.output_dir)
    catalog = default_catalog()
    if "heatmaps" in doc:
        _check_stamp(doc, cfg, "prediction file")
        heat = _prediction_heatmaps(doc, path, cfg.grid_size)
        written = render_heatmaps(heat, catalog.labels, out_dir)
    elif "rooms" in doc:
        _check_stamp(doc, cfg, "layout file")
        if not isinstance(doc["rooms"], list):
            raise UnreadableInputError(f"layout file {path}: rooms are not a list")
        rooms = []
        for i, room_doc in enumerate(doc["rooms"]):
            try:
                room_id, lg, _ = layout_from_dict(room_doc, catalog.n)
            except UnreadableInputError as e:
                raise UnreadableInputError(f"layout file {path}: room {i}: {e}") from e
            if lg.grid_size != cfg.grid_size:
                raise ConfigMismatchError(
                    f"layout file {path}: room {i} of grid size {lg.grid_size} "
                    f"!= configured {cfg.grid_size}"
                )
            rooms.append((room_id, lg))
        written = [render_layout(room_id, lg, out_dir) for room_id, lg in rooms]
    else:
        raise UnreadableInputError("input is neither a prediction nor a layout artifact")
    print(f"rendered {len(written)} images to {out_dir}")


def cmd_ontology(cfg: RunConfig, action: str, endpoint_config) -> None:
    if action == "validate":
        onto = _ontology(cfg)
        aff = class_affinity(onto)
        print(
            f"ontology ok: {len(onto.room_concepts)} room concepts x "
            f"{len(onto.object_classes)} classes, affinity rows stochastic: "
            f"{bool(np.allclose(aff.sum(axis=1), 1.0))}"
        )
        return
    if action == "build":
        if not endpoint_config:
            raise MissingArtifactError("ontology build needs --endpoint-config")
        ep = EndpointConfig.from_file(_require(endpoint_config, "endpoint config"))
        onto = query_llm_ontology(ep, default_ontology().room_concepts, default_catalog())
        out = cfg.ontology_file or str(Path(cfg.output_dir) / "ontology.csv")
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        save_ontology(onto, out)
        print(f"ontology written to {out}")
        return
    raise SceneCompError(f"unknown ontology action: {action}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scenecomp",
        description="Room-level scene composition pipeline",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int)
    p.add_argument("--variant", choices=["base", "base-ont"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="synthesize a dataset directory")
    sub.add_parser("train", help="train a model on a dataset")
    sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    sp = sub.add_parser("predict", help="predict heatmaps for a belief-graph file")
    sp.add_argument("graph", help="scene-graph JSON (kind=belief)")
    sl = sub.add_parser("layout", help="extract layouts from a prediction file")
    sl.add_argument("prediction", help="prediction JSON from the predict command")
    sr = sub.add_parser("render", help="render a prediction or layout to images")
    sr.add_argument("input", help="prediction or layout JSON")
    so = sub.add_parser("ontology", help="build or validate an ontology")
    so.add_argument("action", choices=["build", "validate"])
    so.add_argument("--endpoint-config", help="JSON endpoint config for build")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "threshold": args.threshold,
        "output_dir": args.out,
        "variant": args.variant.replace("-", "_") if args.variant else None,
    }
    try:
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "generate":
            cmd_generate(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "eval":
            cmd_eval(cfg)
        elif args.command == "predict":
            cmd_predict(cfg, args.graph)
        elif args.command == "layout":
            cmd_layout(cfg, args.prediction)
        elif args.command == "render":
            cmd_render(cfg, args.input)
        elif args.command == "ontology":
            cmd_ontology(cfg, args.action, args.endpoint_config)
    except (SceneCompError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
