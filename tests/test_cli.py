import base64
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scenecomp
import scenecomp.cli as cli_module
from scenecomp import __version__
from scenecomp.catalog import default_catalog
from scenecomp.cli import RunConfig, main
from scenecomp.dataset import (
    generate_synthetic_scene,
    heatmaps_from_dict,
    heatmaps_to_dict,
    template_by_name,
)
from scenecomp.graphs import (
    BELIEF,
    BUILDING,
    SceneNode,
    augment,
    build_graph,
    make_belief_graph,
    rooms_of,
    save_graph,
)
from scenecomp.layout import EMPTY, LayoutGrid, Placement, extract_layout, layout_to_dict
from scenecomp.nn import ModelConfig, init_params, save_checkpoint
from scenecomp.ontology import Ontology, class_affinity, default_ontology, load_ontology, save_ontology
from scenecomp.raster import HeatmapSet, rasterize
from scenecomp.render import heatmap_to_pgm, layout_to_ppm


def _write_config(tmp_path, name="config.json", **extra):
    cfg = {
        "dataset_dir": str(tmp_path / "dataset"),
        "checkpoint": str(tmp_path / "checkpoint.json"),
        "output_dir": str(tmp_path / "out"),
        "grid_size": 8,
        "seed": 3,
        "n_scenes": 10,
        "n_rooms": 2,
        "hidden": 8,
        "dropout": 0.1,
        "epochs": 2,
        "batch_size": 4,
        "lr": 1e-3,
        "lr_decay": 0.0,
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _belief_graph_file(tmp_path, seed=11):
    catalog = default_catalog()
    templates = (template_by_name("kitchen"), template_by_name("bedroom"))
    g = generate_synthetic_scene(templates, 2, seed, catalog)
    g = augment(g, 0.25, seed)
    room = rooms_of(g)[0]
    belief = make_belief_graph(g, [(room.id, catalog.index("chair"), 2)])
    path = tmp_path / "belief.json"
    save_graph(belief, path)
    return path


def test_full_pipeline_round_trip(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "generate"]) == 0
    assert (tmp_path / "dataset" / "manifest.json").exists()

    assert main(["--config", str(cfg), "train"]) == 0
    with np.load(tmp_path / "checkpoint.json", allow_pickle=False) as ckpt:
        meta = json.loads(ckpt["meta.json"])
    assert meta["extra"]["stamp"]["S"] == 8
    assert meta["extra"]["stamp"]["catalog_hash"] == default_catalog().hash()

    assert main(["--config", str(cfg), "eval"]) == 0
    report = json.loads((tmp_path / "out" / "metrics_report.json").read_text())
    for key in ("wasserstein", "energy", "frobenius"):
        assert set(report[key]) == {"n", "mean", "variance", "skewness", "kurtosis"}
    assert report["flattening_convention"] == "row-major-1d-unit-support"
    assert "flattening_convention" not in report["provenance"]
    assert report["provenance"]["checkpoint_hash"]

    graph = _belief_graph_file(tmp_path)
    assert main(["--config", str(cfg), "predict", str(graph)]) == 0
    pred = tmp_path / "out" / "prediction.json"
    assert pred.exists()

    assert main(["--config", str(cfg), "layout", str(pred)]) == 0
    layout = tmp_path / "out" / "layout.json"
    doc = json.loads(layout.read_text())
    assert len(doc["rooms"]) == 2
    # every blind chair got placed in its room
    placed = [p for room in doc["rooms"] for p in room["placements"]]
    assert len(placed) == 2

    render_dir = tmp_path / "render"
    assert main(["--config", str(cfg), "--out", str(render_dir), "render", str(pred)]) == 0
    assert list(render_dir.glob("*.pgm"))
    assert main(["--config", str(cfg), "--out", str(render_dir), "render", str(layout)]) == 0
    assert list(render_dir.glob("*_layout.ppm"))


_SCIPY_PROBE = """
import sys
import scenecomp
from scenecomp.cli import main

cfg, prediction, layout, graph = sys.argv[1:]
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

for command in (["generate"], ["layout", prediction], ["render", layout],
                ["ontology", "validate"]):
    assert main(["--config", cfg, *command]) == 0, command
    assert not scipy_modules(), (command, scipy_modules()[:3])
assert main(["--config", cfg, "predict", graph]) == 0
assert "scipy.sparse" in scipy_modules()
"""


def test_only_commands_that_build_csr_matrices_load_scipy(tmp_path):
    cfg = _write_config(tmp_path, epochs=1)
    graph = _belief_graph_file(tmp_path)
    for command in (["generate"], ["train"], ["predict", str(graph)]):
        assert main(["--config", str(cfg), *command]) == 0
    fresh = _write_config(tmp_path, "fresh.json", dataset_dir=str(tmp_path / "fresh"),
                          output_dir=str(tmp_path / "fresh-out"))
    src = str(Path(scenecomp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(fresh), str(tmp_path / "out" / "prediction.json"),
         str(tmp_path / "fresh-out" / "layout.json"), str(graph)],
        env=env, check=True,
    )


def test_generate_is_byte_deterministic(tmp_path):
    cfg_a = _write_config(tmp_path, "ca.json", dataset_dir=str(tmp_path / "a"), n_scenes=4)
    cfg_b = _write_config(tmp_path, "cb.json", dataset_dir=str(tmp_path / "b"), n_scenes=4)
    assert main(["--config", str(cfg_a), "generate"]) == 0
    assert main(["--config", str(cfg_b), "generate"]) == 0
    a, b = (
        {p.relative_to(d): p.read_bytes() for p in d.rglob("*.json")}
        for d in (tmp_path / "a", tmp_path / "b")
    )
    assert len(a) == 5  # the manifest and four samples
    assert a == b


def test_grid_size_mismatch_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_scenes=4)
    assert main(["--config", str(cfg), "generate"]) == 0
    bad = _write_config(tmp_path, "bad.json", n_scenes=4, grid_size=16)
    assert main(["--config", str(bad), "train"]) == 1
    assert "grid size" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_sizes": 8}))
    assert main(["--config", str(path), "generate"]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_artifacts_fail_cleanly(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "train"]) == 1
    assert main(["--config", str(cfg), "eval"]) == 1
    assert main(["--config", str(cfg), "predict", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_predict_rejects_wrong_shape_checkpoint(tmp_path, capsys):
    # before checkpoints were validated, a (1,)-shaped output bias loaded and
    # broadcast silently into a wrong prediction
    cfg = _write_config(tmp_path)
    config = ModelConfig(n_classes=default_catalog().n, grid_size=8, hidden=8)
    params, stats = init_params(config)
    params["b4"] = np.zeros(1)
    save_checkpoint(tmp_path / "checkpoint.json", config, params, stats, default_catalog().hash())
    graph = _belief_graph_file(tmp_path)
    assert main(["--config", str(cfg), "predict", str(graph)]) == 1
    assert "checkpoint params entry b4 has shape [1]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "prediction.json").exists()


# a stored model config key -> a value that `load_checkpoint` refuses
BAD_STORED_CONFIGS = {
    "n-layers-zero": ("n_layers", 0),
    "grid-size-a-float": ("grid_size", 8.0),
    "hidden-a-float": ("hidden", 8.0),
    "variant-unknown": ("variant", "foo"),
    "variant-null": ("variant", None),
    "dropout-one": ("dropout", 1.0),
    "bn-momentum-above-one": ("bn_momentum", 1.5),
    "linear-only-a-string": ("linear_only", "yes"),
}


@pytest.mark.parametrize("case", sorted(BAD_STORED_CONFIGS))
def test_predict_of_checkpoint_with_bad_stored_config_fails_cleanly(tmp_path, capsys, case):
    key, value = BAD_STORED_CONFIGS[case]
    cfg = _write_config(tmp_path)
    fields = dict(n_classes=default_catalog().n, grid_size=8, hidden=8)
    # arrays shaped as the stored config says, so that only its value is wrong
    shaped = {**fields, key: int(value) if key in ("grid_size", "hidden") else value}
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, ModelConfig(**{**fields, key: value}), *init_params(ModelConfig(**shaped)),
                    default_catalog().hash())
    assert main(["--config", str(cfg), "predict", str(_belief_graph_file(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable checkpoint {path}: stored config key {key} is {value!r}, not ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "prediction.json").exists()


def _first_object(d):
    return next(n for n in d["nodes"] if n["layer"] == "object")


def _with(key, value):
    return lambda d: {**d, key: value}


def _with_position(value):
    return lambda d: _first_object(d).update(position=value) or d


# a saved belief graph -> a malformed one that graph_from_dict refuses
MALFORMED_GRAPHS = {
    "not-an-object": lambda d: [1, 2],
    "lacks-nodes": lambda d: {k: v for k, v in d.items() if k != "nodes"},
    "lacks-kind": lambda d: {k: v for k, v in d.items() if k != "kind"},
    "nodes-an-int": _with("nodes", 3),
    "edges-an-object": _with("edges", {"0": 1}),
    "node-a-list": lambda d: {**d, "nodes": [[0, "building"], *d["nodes"][1:]]},
    "node-id-a-string": lambda d: {**d, "nodes": [{"id": "0", "layer": "building"}, *d["nodes"][1:]]},
    "edge-a-triple": lambda d: {**d, "edges": [[*d["edges"][0], 1], *d["edges"][1:]]},
    "edge-an-int": lambda d: {**d, "edges": [7, *d["edges"][1:]]},
    "edge-of-floats": lambda d: {**d, "edges": [[float(v) for v in d["edges"][0]], *d["edges"][1:]]},
    "position-of-strings": _with_position(["1.0", "2.0", "0.5"]),
    "position-a-number": _with_position(3.0),
    "position-of-two": _with_position([1.0, 2.0]),
    "catalog-a-string": _with("catalog", "chair"),
    "unknown-kind": _with("kind", "sketch"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_predict_of_malformed_graph_fails_cleanly(tmp_path, capsys, case):
    cfg = _write_config(tmp_path)
    config = ModelConfig(n_classes=default_catalog().n, grid_size=8, hidden=8)
    params, stats = init_params(config)
    save_checkpoint(tmp_path / "checkpoint.json", config, params, stats, default_catalog().hash())
    graph = _belief_graph_file(tmp_path)
    graph.write_text(json.dumps(MALFORMED_GRAPHS[case](json.loads(graph.read_text()))))
    assert main(["--config", str(cfg), "predict", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: graph file {graph}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "prediction.json").exists()


def test_predict_of_room_whose_frame_rounds_to_no_width_fails_cleanly(tmp_path, capsys):
    # x = 1e17 with width 1 gives the frame lo_x == hi_x == 1e17, which
    # `layout` would refuse in the prediction
    cfg = _write_config(tmp_path)
    config = ModelConfig(n_classes=default_catalog().n, grid_size=8, hidden=8)
    save_checkpoint(tmp_path / "checkpoint.json", config, *init_params(config), default_catalog().hash())
    graph = _belief_graph_file(tmp_path)
    d = json.loads(graph.read_text())
    next(n for n in d["nodes"] if n["layer"] == "room").update(
        position=[1e17, 0.0, 1.5], dimensions=[1.0, 4.0, 3.0]
    )
    graph.write_text(json.dumps(d))
    assert main(["--config", str(cfg), "predict", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "of zero area" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "prediction.json").exists()


def test_predict_of_room_less_belief_graph_writes_empty_prediction(tmp_path):
    # the encoder once failed reshaping the empty target of such a graph
    cfg = _write_config(tmp_path)
    config = ModelConfig(n_classes=default_catalog().n, grid_size=8, hidden=8)
    save_checkpoint(tmp_path / "checkpoint.json", config, *init_params(config), default_catalog().hash())
    graph = tmp_path / "building.json"
    save_graph(build_graph([SceneNode(0, BUILDING)], [], BELIEF, default_catalog()), graph)
    assert main(["--config", str(cfg), "predict", str(graph)]) == 0
    doc = json.loads((tmp_path / "out" / "prediction.json").read_text())
    assert doc["heatmaps"]["shape"] == [0, default_catalog().n, 8, 8]
    assert doc["blind_counts"] == {}


def test_train_is_byte_deterministic(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, n_scenes=4)
    assert main(["--config", str(cfg), "generate"]) == 0
    for name, now in (("a", 1.0e9), ("b", 1.7e9)):
        monkeypatch.setattr(time, "time", lambda: now)
        run = _write_config(tmp_path, f"{name}.json", n_scenes=4, checkpoint=str(tmp_path / name / "checkpoint.json"))
        (tmp_path / name).mkdir()
        assert main(["--config", str(run), "train"]) == 0
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() == (tmp_path / "b" / "checkpoint.json").read_bytes()


def test_eval_reads_the_checkpoint_once_and_hashes_the_bytes_it_scores(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, n_scenes=4)
    assert main(["--config", str(cfg), "generate"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    ckpt = tmp_path / "checkpoint.json"
    content = ckpt.read_bytes()
    reads, loaded = [], []
    read_bytes, load_checkpoint = Path.read_bytes, cli_module.load_checkpoint

    def counting_read(path):
        reads.append(path)
        return read_bytes(path)

    def spying_load(path, raw=None):
        loaded.append(raw)
        return load_checkpoint(path, raw)

    monkeypatch.setattr(Path, "read_bytes", counting_read)
    monkeypatch.setattr(cli_module, "load_checkpoint", spying_load)
    assert main(["--config", str(cfg), "eval"]) == 0
    monkeypatch.undo()
    assert reads.count(ckpt) == 1 and loaded == [content]
    report = json.loads((tmp_path / "out" / "metrics_report.json").read_text())
    assert report["provenance"]["checkpoint_hash"] == hashlib.sha256(content).hexdigest()[:16]


def _ontology_csv(tmp_path):
    """A CSV of the default ontology's room concepts and classes, every entry 1."""
    o = default_ontology()
    path = tmp_path / "ones.csv"
    save_ontology(Ontology(o.room_concepts, o.object_classes, np.ones_like(o.biadjacency)), path)
    return path


def test_base_ont_checkpoint_holds_the_affinity_of_its_ontology(tmp_path):
    csv = _ontology_csv(tmp_path)
    cfg = _write_config(tmp_path, n_scenes=4, variant="base_ont", ontology_file=str(csv))
    assert main(["--config", str(cfg), "generate"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    with np.load(tmp_path / "checkpoint.json", allow_pickle=False) as ckpt:
        stored = ckpt["stats/affinity"]
    expected = class_affinity(load_ontology(csv)).matrix
    assert stored.dtype == expected.dtype and stored.tobytes() == expected.tobytes()


def test_eval_and_predict_of_base_ont_read_no_ontology(tmp_path, monkeypatch):
    trained = _write_config(tmp_path, variant="base_ont", ontology_file=str(_ontology_csv(tmp_path)))
    graph = _belief_graph_file(tmp_path)
    for command in (["generate"], ["train"], ["eval"], ["predict", str(graph)]):
        assert main(["--config", str(trained), *command]) == 0

    def no_ontology(*args):
        raise AssertionError("an ontology was read")

    for module in ("scenecomp.cli", "scenecomp.ontology"):
        for name in ("load_ontology", "default_ontology"):
            monkeypatch.setattr(f"{module}.{name}", no_ontology)
    # the checkpoint, not the config, decides the variant and its affinity
    missing = _write_config(tmp_path, "missing.json", ontology_file=str(tmp_path / "missing.csv"),
                            output_dir=str(tmp_path / "again"))
    assert main(["--config", str(missing), "eval"]) == 0
    assert main(["--config", str(missing), "predict", str(graph)]) == 0
    for name in ("metrics_report.json", "prediction.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_half_length_checkpoint_fails_cleanly(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, n_scenes=4)
    assert main(["--config", str(cfg), "generate"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    args = [str(_belief_graph_file(tmp_path))] if command == "predict" else []
    capsys.readouterr()
    assert main(["--config", str(cfg), command, *args]) == 1
    assert capsys.readouterr().err.startswith("error: unreadable checkpoint")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid_size", "8", "config key grid_size is '8', not int"),
        ("seed", True, "config key seed is True, not int"),
        ("lr", "fast", "config key lr is 'fast', not float"),
        ("ontology_file", 3, "config key ontology_file is 3, not str or null"),
    ],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, key, value, message):
    cfg = _write_config(tmp_path, n_scenes=4, **{key: value})
    assert main(["--config", str(cfg), "generate"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dataset").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid_size", 0, "config key grid_size is 0, not > 0"),
        ("n_scenes", -1, "config key n_scenes is -1, not > 0"),
        ("n_rooms", 0, "config key n_rooms is 0, not > 0"),
        ("hidden", 0, "config key hidden is 0, not > 0"),
        ("epochs", 0, "config key epochs is 0, not > 0"),
        ("batch_size", 0, "config key batch_size is 0, not > 0"),
        ("removal_fraction", 1.5, "config key removal_fraction is 1.5, not in (0, 1)"),
        ("removal_fraction", 0, "config key removal_fraction is 0.0, not in (0, 1)"),
        ("blind_fraction", -1.0, "config key blind_fraction is -1.0, not in [0, 1]"),
        ("lr", 0, "config key lr is 0.0, not > 0"),
        ("lr_decay", -1e-8, "config key lr_decay is -1e-08, not >= 0"),
        ("dropout", 1, "config key dropout is 1.0, not in [0, 1)"),
        ("threshold", -1, "config key threshold is -1.0, not a finite number >= 0"),
        ("threshold", float("nan"), "config key threshold is nan, not a finite number >= 0"),
        ("threshold", float("inf"), "config key threshold is inf, not a finite number >= 0"),
        ("--threshold", "-1", "config key threshold is -1.0, not a finite number >= 0"),
        ("--threshold", "nan", "config key threshold is nan, not a finite number >= 0"),
        ("variant", "foo", "config key variant is 'foo', not 'base' or 'base_ont'"),
    ],
)
def test_config_value_out_of_range_rejected(tmp_path, capsys, key, value, message):
    # a key spelled as a flag is given on the command line, not in the file
    flags = [f"{key}={value}"] if key.startswith("--") else []
    cfg = _write_config(tmp_path, **{"n_scenes": 4, **({} if flags else {key: value})})
    assert main(["--config", str(cfg), *flags, "generate"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "dataset").exists()


def test_config_range_ends_accepted(tmp_path):
    ends = dict(blind_fraction=1.0, dropout=0.0, lr_decay=0.0, grid_size=1, n_scenes=1, threshold=0.0)
    cfg = RunConfig.load(_write_config(tmp_path, **ends), {})
    assert [getattr(cfg, key) for key in ends] == list(ends.values())
    # null, the default threshold, is not range-checked
    cfg = RunConfig.load(_write_config(tmp_path, blind_fraction=0.0, threshold=None), {})
    assert (cfg.blind_fraction, cfg.threshold) == (0.0, None)


def test_config_int_for_float_read_as_float(tmp_path):
    cfg = RunConfig.load(_write_config(tmp_path, dropout=0, lr=1), {})
    assert (cfg.dropout, cfg.lr) == (0.0, 1.0)
    assert type(cfg.dropout) is type(cfg.lr) is float


@pytest.mark.parametrize(
    "command", ["generate", "train", "train-sample", "predict", "layout", "render", "ontology"]
)
def test_malformed_json_input_fails_cleanly(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, n_scenes=4)
    bad = tmp_path / "bad.json"
    if command.startswith("train"):
        assert main(["--config", str(cfg), "generate"]) == 0
        dataset = tmp_path / "dataset"
        bad = dataset / "manifest.json" if command == "train" else next((dataset / "samples").iterdir())
        bad.write_bytes(bad.read_bytes()[: bad.stat().st_size // 2])
        args = ["train"]
    elif command == "generate":
        bad.write_text('{"grid_size": 8,')
        cfg, args = bad, ["generate"]
    elif command == "render":
        bad.write_bytes(b'{"heatmaps": "\xff"}')  # not UTF-8
        args = ["render", str(bad)]
    elif command == "ontology":
        bad.write_text('{"base_url": ')
        args = ["ontology", "build", "--endpoint-config", str(bad)]
    else:
        bad.write_text('{"kind": ' if command == "predict" else '{"stamp": ')
        args = [command, str(bad)]
    capsys.readouterr()
    assert main(["--config", str(cfg), *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable JSON file {bad}: ")


def test_config_that_is_not_an_object_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("3")
    assert main(["--config", str(path), "generate"]) == 1
    assert capsys.readouterr().err == f"error: config file {path} holds a JSON int, not an object\n"


def test_layout_of_prediction_without_stamp_object_fails(tmp_path, capsys):
    pred = tmp_path / "prediction.json"
    pred.write_text(json.dumps({"stamp": 3, "heatmaps": {}}))
    assert main(["--config", str(_write_config(tmp_path)), "layout", str(pred)]) == 1
    assert capsys.readouterr().err == "error: prediction file: grid size None != configured 8\n"


# a prediction's stamp -> the error laying it out raises (None: it is laid out);
# seed and tool_version are provenance, grid size and catalog must match
STAMP_CHANGES = {
    "other-seed": ({"seed": 4}, None),
    "other-tool-version": ({"tool_version": "0.0.0"}, None),
    "other-grid-size": ({"S": 16}, "grid size 16 != configured 8"),
    "other-catalog": ({"catalog_hash": "0" * 16}, "catalog hash mismatch"),
}


@pytest.mark.parametrize("case", STAMP_CHANGES)
def test_layout_checks_only_grid_size_and_catalog_of_stamp(tmp_path, capsys, case):
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 8)
    change, message = STAMP_CHANGES[case]
    stamp = {"S": 8, "catalog_hash": catalog.hash(), "seed": 3, "tool_version": __version__, **change}
    pred = tmp_path / "prediction.json"
    pred.write_text(json.dumps({"stamp": stamp, "heatmaps": heatmaps_to_dict(heat)}))
    code = main(["--config", str(_write_config(tmp_path)), "layout", str(pred)])
    if message is None:
        assert code == 0
        assert len(json.loads((tmp_path / "out" / "layout.json").read_text())["rooms"]) == 2
    else:
        assert code == 1 and capsys.readouterr().err == f"error: prediction file: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["prediction", "layout"])
@pytest.mark.parametrize("case", STAMP_CHANGES)
def test_render_checks_only_grid_size_and_catalog_of_stamp(tmp_path, capsys, kind, case):
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 8)
    change, message = STAMP_CHANGES[case]
    stamp = {"S": 8, "catalog_hash": catalog.hash(), "seed": 3, "tool_version": __version__, **change}
    if kind == "prediction":
        doc = {"stamp": stamp, "heatmaps": heatmaps_to_dict(heat)}
    else:
        doc = {"stamp": stamp, "rooms": [layout_to_dict(1, extract_layout(heat.data[0], 0.1), [])]}
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code = main(["--config", str(_write_config(tmp_path)), "render", str(path)])
    if message is None:
        assert code == 0 and list((tmp_path / "out").iterdir())
    else:
        assert code == 1 and capsys.readouterr().err == f"error: {kind} file: {message}\n"
        assert not (tmp_path / "out").exists()


def _with_planes(h: dict, change) -> dict:
    """Heatmaps whose stored planes (a planes x cells array) went through change."""
    planes = np.frombuffer(base64.b64decode(h["data_b64"]), "<f8").reshape(len(h["planes"]), -1)
    planes = change(planes.copy())
    return {**h, "data_b64": base64.b64encode(planes.astype("<f8").tobytes()).decode()}


def _first_plane(value):
    def change(planes):
        planes[0] = value(planes[0])
        return planes
    return change


def _with_classes(h: dict, n: int) -> dict:
    """Heatmaps widened to n classes, the last of which holds a uniform plane
    in the first room."""
    heat = heatmaps_from_dict(h)
    data = np.zeros((heat.data.shape[0], n, *heat.data.shape[2:]))
    data[:, : heat.data.shape[1]] = heat.data
    data[0, -1] = 1 / heat.grid_size**2
    return heatmaps_to_dict(HeatmapSet(data, heat.room_ids, heat.grid_size, heat.room_frames))


NOT_A_DISTRIBUTION = "each (room, class) grid must sum to 1 or be all zero"

# heatmaps of a valid prediction -> malformed heatmaps, and the error they raise
BAD_HEATMAPS = {
    "not-an-object": (lambda h: [1], "heatmaps are not a JSON object"),
    "dense-version-1": (
        lambda h: {k: v for k, v in h.items() if k != "planes"},
        "heatmaps lack the keys ['planes']",
    ),
    "rank-3-shape": (lambda h: {**h, "shape": h["shape"][1:]}, "heatmaps of shape [35, 8, 8] do not fit"),
    "shape-vs-rooms": (
        lambda h: {**h, "shape": [3, *h["shape"][1:]]},
        "heatmaps of shape [3, 35, 8, 8] do not fit 2 rooms",
    ),
    "shape-vs-grid": (lambda h: {**h, "grid_size": 16}, "fit 2 rooms and 2 frames at grid size 16"),
    "planes-descending": (lambda h: {**h, "planes": h["planes"][::-1]}, "must be strictly increasing"),
    "planes-repeated": (lambda h: {**h, "planes": h["planes"][:1] + h["planes"]}, "strictly increasing"),
    "plane-out-of-range": (lambda h: {**h, "planes": h["planes"][:-1] + [70]}, "indices below 70"),
    "negative-plane": (lambda h: {**h, "planes": [-1] + h["planes"][1:]}, "indices below 70"),
    "short-data": (
        lambda h: {**h, "data_b64": base64.b64encode(base64.b64decode(h["data_b64"])[8:]).decode()},
        "heatmap data holds",
    ),
    "data-not-text": (lambda h: {**h, "data_b64": 3}, "unreadable heatmaps"),
    "room-ids-text": (lambda h: {**h, "room_ids": ["a", "b"]}, "room ids ['a', 'b'] are not distinct ints"),
    "room-ids-repeated": (lambda h: {**h, "room_ids": [1, 1]}, "room ids [1, 1] are not distinct ints"),
    "room-id-bool": (lambda h: {**h, "room_ids": [True, 9]}, "are not distinct ints"),
    "frame-pair": (lambda h: {**h, "room_frames": [[0, 0], h["room_frames"][1]]}, "room frame must be"),
    "frame-text": (lambda h: {**h, "room_frames": [["0", "0", "1", "1"], h["room_frames"][1]]}, "room frame"),
    "frame-no-width": (lambda h: {**h, "room_frames": [[1, 0, 1, 2], h["room_frames"][1]]}, "lo_x < hi_x"),
    "frame-upside-down": (lambda h: {**h, "room_frames": [[0, 2, 1, 0], h["room_frames"][1]]}, "lo_y < hi_y"),
    "frame-nan": (lambda h: {**h, "room_frames": [[0, 0, float("nan"), 1], h["room_frames"][1]]}, "finite"),
    "nan-plane": (lambda h: _with_planes(h, _first_plane(lambda p: p * np.nan)), NOT_A_DISTRIBUTION),
    "inf-plane": (
        lambda h: _with_planes(h, _first_plane(lambda p: np.where(p == p.max(), np.inf, p))),
        NOT_A_DISTRIBUTION,
    ),
    "negated-planes": (lambda h: _with_planes(h, np.negative), "heatmap entries must be non-negative"),
    "half-mass-plane": (lambda h: _with_planes(h, _first_plane(lambda p: p * 0.5)), NOT_A_DISTRIBUTION),
    "forty-classes": (lambda h: _with_classes(h, 40), "heatmaps hold 40 classes, not the catalog's 35"),
}


@pytest.mark.parametrize("command", ["layout", "render"])
@pytest.mark.parametrize("case", ["no-heatmaps", *BAD_HEATMAPS])
def test_malformed_prediction_fails_cleanly(tmp_path, capsys, command, case):
    cfg = _write_config(tmp_path)
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 8)
    doc = {"stamp": {"S": 8, "catalog_hash": catalog.hash()}, "heatmaps": heatmaps_to_dict(heat)}
    pred = tmp_path / "prediction.json"
    if case == "no-heatmaps":
        del doc["heatmaps"]
        message = {"layout": "holds no heatmaps", "render": "neither a prediction nor a layout"}[command]
        prefix = "error: "
    else:
        change, message = BAD_HEATMAPS[case]
        doc["heatmaps"] = change(doc["heatmaps"])
        prefix = f"error: prediction file {pred}: "
    pred.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), command, str(pred)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err
    assert not (tmp_path / "out").exists()


def test_layout_and_render_refuse_prediction_body_of_other_grid_size(tmp_path, capsys):
    # a prediction stamped S=8 whose heatmaps are 16x16
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 16)
    pred = tmp_path / "prediction.json"
    pred.write_text(json.dumps(
        {"stamp": {"S": 8, "catalog_hash": catalog.hash()}, "heatmaps": heatmaps_to_dict(heat)}
    ))
    cfg = _write_config(tmp_path)
    for command in ("layout", "render"):
        assert main(["--config", str(cfg), command, str(pred)]) == 1
        assert capsys.readouterr().err == (
            f"error: prediction file {pred}: heatmaps of grid size 16 != configured 8\n"
        )
        assert not (tmp_path / "out").exists()


def test_render_refuses_layout_room_of_other_grid_size(tmp_path, capsys):
    # a layout file stamped S=8 whose one room is 4x4
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"stamp": {**LAYOUT_STAMP, "S": 8}, "rooms": [_room_doc()]}))
    assert main(["--config", str(_write_config(tmp_path)), "render", str(layout)]) == 1
    assert capsys.readouterr().err == (
        f"error: layout file {layout}: room 0 of grid size 4 != configured 8\n"
    )
    assert not (tmp_path / "out").exists()


# blind_counts of a prediction whose heatmaps hold rooms 1 and 9 (any other
# key is no room of it), each malformed
BAD_BLIND_COUNTS = {
    "not-an-object": 3,
    "room-not-an-object": {"1": 3},
    "unknown-room": {"1": {"0": 1}, "99": {"0": 1}},
    "class-out-of-catalog": {"1": {"35": 1}},
    "class-not-an-index": {"1": {"chair": 1}},
    "negative-count": {"1": {"0": -1}},
    "float-count": {"1": {"0": 1.5}},
    "bool-count": {"1": {"0": True}},
    # more instances than the 8 x 8 grid has cells
    "count-past-cells": {"1": {"0": 8 * 8 + 1}},
    "count-huge": {"1": {"0": 10**9}},
}


@pytest.mark.parametrize("case", BAD_BLIND_COUNTS)
def test_layout_of_malformed_blind_counts_fails_cleanly(tmp_path, capsys, case):
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 8)
    assert [str(r) for r in heat.room_ids] == ["1", "9"]
    pred = tmp_path / "prediction.json"
    pred.write_text(json.dumps({
        "stamp": {"S": 8, "catalog_hash": catalog.hash()},
        "heatmaps": heatmaps_to_dict(heat),
        "blind_counts": BAD_BLIND_COUNTS[case],
    }))
    start = time.perf_counter()
    assert main(["--config", str(_write_config(tmp_path)), "layout", str(pred)]) == 1
    # refused before any placement: a placement per counted instance would take hours
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err.startswith(f"error: prediction file {pred}: blind_counts must map")
    assert not (tmp_path / "out").exists()


def test_layout_places_a_full_grid_of_blind_instances(tmp_path):
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("kitchen"),), 2, 5, catalog)
    heat, _ = rasterize(g, 8)
    pred = tmp_path / "prediction.json"
    pred.write_text(json.dumps({
        "stamp": {"S": 8, "catalog_hash": catalog.hash()},
        "heatmaps": heatmaps_to_dict(heat),
        "blind_counts": {"1": {"0": 8 * 8}},
    }))
    assert main(["--config", str(_write_config(tmp_path)), "layout", str(pred)]) == 0
    rooms = json.loads((tmp_path / "out" / "layout.json").read_text())["rooms"]
    assert [len(r["placements"]) for r in rooms] == [64, 0]


def _room_doc():
    cells = np.full((4, 4), EMPTY, dtype=int)
    cells[1, 2] = 3
    return layout_to_dict(7, LayoutGrid(cells, 0.1), [Placement(3, (1, 2), (0.5, 1.5))])


# one room of a layout file -> a malformed room, and the error it raises
BAD_LAYOUT_ROOMS = {
    "not-an-object": (lambda r: [r], "layout room is a JSON list, not an object"),
    "only-room-id": (lambda r: {"room_id": 1}, "lacks the keys ['S', 'threshold', 'cells', 'placements']"),
    "size-zero": (lambda r: {**r, "S": 0}, "grid size 0 is not a positive int"),
    "size-text": (lambda r: {**r, "S": "4"}, "grid size '4' is not a positive int"),
    "size-float": (lambda r: {**r, "S": 4.0}, "grid size 4.0 is not a positive int"),
    "room-id-text": (lambda r: {**r, "room_id": "7"}, "room_id must be an int"),
    "threshold-null": (lambda r: {**r, "threshold": None}, "threshold a number"),
    "runs-short": (lambda r: {**r, "cells": [[-1, 15]]}, "cover 15 cells, not the 16 of a 4x4 grid"),
    "runs-long": (lambda r: {**r, "cells": r["cells"] + [[-1, 1]]}, "cover 17 cells"),
    "run-not-a-pair": (lambda r: {**r, "cells": [[-1]]}, "runs of ints"),
    "run-zero-length": (lambda r: {**r, "cells": [[0, 0], *r["cells"]]}, "runs of ints"),
    "run-below-empty": (lambda r: {**r, "cells": [[-2, 16]]}, "runs of ints"),
    "placements-object": (lambda r: {**r, "placements": {}}, "placements are not a list"),
    "cells-object": (lambda r: {**r, "cells": {}}, "cells are not a list of runs"),
    "placement-no-cell": (
        lambda r: {**r, "placements": [{"class": 3, "xy": [0.5, 1.5]}]},
        "placement 0 needs",
    ),
    "placement-off-grid": (
        lambda r: {**r, "placements": [{**r["placements"][0], "cell": [1, 4]}]},
        "cell [i, j] inside the 4x4 grid",
    ),
    "run-value-huge": (
        lambda r: {**r, "cells": [[10**30, 16]]},
        "layout cells must be -1 (empty) or class indices below 35",
    ),
    "run-value-past-catalog": (
        lambda r: {**r, "cells": [[-1, 6], [35, 1], [-1, 9]]},
        "layout cells must be -1 (empty) or class indices below 35",
    ),
    "placement-negative-class": (
        lambda r: {**r, "placements": [{**r["placements"][0], "class": -1}]},
        "placement 0 needs a class >= 0",
    ),
    "placement-class-past-catalog": (
        lambda r: {**r, "placements": [{**r["placements"][0], "class": 35}]},
        "placement 0 needs a class >= 0 and below 35",
    ),
    "placement-xy-triple": (
        lambda r: {**r, "placements": [{**r["placements"][0], "xy": [0, 1, 2]}]},
        "an xy [x, y]",
    ),
    "placement-low-support-text": (
        lambda r: {**r, "placements": [{**r["placements"][0], "low_support": "no"}]},
        "boolean low_support",
    ),
}


# the stamp of a layout file that a grid_size 4 config renders
LAYOUT_STAMP = {"S": 4, "catalog_hash": default_catalog().hash()}


@pytest.mark.parametrize("case", ["rooms-not-a-list", *BAD_LAYOUT_ROOMS])
def test_render_of_malformed_layout_fails_cleanly(tmp_path, capsys, case):
    layout = tmp_path / "layout.json"
    doc = {"stamp": LAYOUT_STAMP, "rooms": [_room_doc()]}
    if case == "rooms-not-a-list":
        doc["rooms"], prefix, message = 3, f"layout file {layout}: ", "rooms are not a list"
    else:
        change, message = BAD_LAYOUT_ROOMS[case]
        # the second room is the malformed one; the first is not rendered
        doc["rooms"].append(change(_room_doc()))
        prefix = f"layout file {layout}: room 1: "
    layout.write_text(json.dumps(doc))
    assert main(["--config", str(_write_config(tmp_path, grid_size=4)), "render", str(layout)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}") and message in err
    assert not (tmp_path / "out").exists()


def test_render_of_layout_room_writes_its_image(tmp_path):
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"stamp": LAYOUT_STAMP, "rooms": [_room_doc()]}))
    assert main(["--config", str(_write_config(tmp_path, grid_size=4)), "render", str(layout)]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["room7_layout.ppm"]


def test_predict_rejects_non_belief_graph(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_scenes=4)
    assert main(["--config", str(cfg), "generate"]) == 0
    assert main(["--config", str(cfg), "train"]) == 0
    catalog = default_catalog()
    g = generate_synthetic_scene((template_by_name("office"),), 1, 0, catalog)
    path = tmp_path / "gt.json"
    save_graph(g, path)
    assert main(["--config", str(cfg), "predict", str(path)]) == 1
    assert "belief" in capsys.readouterr().err


def test_ontology_validate_default(capsys):
    assert main(["ontology", "validate"]) == 0
    out = capsys.readouterr().out
    assert "ontology ok" in out
    assert "stochastic: True" in out


def test_ontology_build_requires_endpoint(capsys):
    assert main(["ontology", "build"]) == 1
    assert "endpoint-config" in capsys.readouterr().err


# an ontology CSV -> the start of the error that `ontology validate` gives
MALFORMED_ONTOLOGIES = {
    "ragged-row": (b"room_concept,a,b\nr1,1,0\nr2,1\n", "ontology CSV {path}, line 3: room concept 'r2' needs"),
    "header-only": (b"room_concept,a,b\n", "not an ontology CSV of a header and room concept rows: {path}"),
    "not-utf-8": (b"room_concept,a\n\xff,1\n", "unreadable ontology CSV {path}: "),
    "non-numeric-cell": (b"room_concept,a,b\nr1,1,0\nr2,1,zzz\n",
                         "ontology CSV {path}, line 3: room concept 'r2': non-numeric cell 'zzz'"),
    "out-of-range-cell": (b"room_concept,a,b\nr1,1.5,0\n",
                          "ontology CSV {path}, line 2: room concept 'r1': entry 1.5 outside [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ONTOLOGIES))
def test_ontology_validate_of_malformed_csv_fails_cleanly(tmp_path, capsys, case):
    data, message = MALFORMED_ONTOLOGIES[case]
    path = tmp_path / "ontology.csv"
    path.write_bytes(data)
    cfg = _write_config(tmp_path, ontology_file=str(path))
    assert main(["--config", str(cfg), "ontology", "validate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1


# a valid endpoint config -> (a malformed one, what its error names)
MALFORMED_ENDPOINTS = {
    "not-an-object": (lambda d: list(d.values()), "holds a JSON list, not an object"),
    "lacks-base-url": (lambda d: {"model": d["model"]}, "base_url must be a string"),
    "model-a-number": (_with("model", 3), "model must be a string"),
    "temperature-a-word": (_with("temperature", "hot"), "temperature must be a number"),
    "max-retries-a-float": (_with("max_retries", 2.0), "max_retries must be an int"),
    "max-retries-a-bool": (_with("max_retries", True), "max_retries must be an int"),
    "template-a-list": (_with("prompt_template", ["{room}"]), "prompt_template must be a string"),
    "api-key-a-number": (_with("api_key", 5), "api_key must be a string or null"),
    "template-of-unknown-field": (_with("prompt_template", "{foo} {room}"), "prompt_template does not format"),
    "template-unclosed": (_with("prompt_template", "in a {room"), "prompt_template does not format"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENDPOINTS))
def test_ontology_build_of_malformed_endpoint_config_fails_cleanly(tmp_path, capsys, monkeypatch, case):
    def no_request(*args):
        raise AssertionError("the endpoint was called")

    monkeypatch.setattr("scenecomp.ontology._call_endpoint", no_request)
    edit, message = MALFORMED_ENDPOINTS[case]
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(edit({"base_url": "http://127.0.0.1:9/v1", "model": "m"})))
    cfg = _write_config(tmp_path)
    assert main(["--config", str(cfg), "ontology", "build", "--endpoint-config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "ontology.csv").exists()


# --- golden-byte rendering ------------------------------------------------


def test_heatmap_pgm_golden_bytes():
    grid = np.zeros((2, 2))
    grid[0, 1] = 1.0  # x=0, y=1 -> top-left pixel of the image
    expected = b"P5\n2 2\n255\n" + bytes([255, 0, 0, 0])
    assert heatmap_to_pgm(grid) == expected


def test_heatmap_pgm_scales_to_peak():
    grid = np.array([[0.2, 0.1], [0.0, 0.05]])
    data = heatmap_to_pgm(grid)[len(b"P5\n2 2\n255\n") :]
    assert max(data) == 255
    assert heatmap_to_pgm(np.zeros((2, 2))).endswith(bytes(4))


def test_layout_ppm_golden_bytes():
    cells = np.full((2, 2), EMPTY, dtype=int)
    cells[1, 0] = 0  # x=1, y=0 -> bottom-right pixel
    lg = LayoutGrid(cells, 2, (0.0, 0.0, 2.0, 2.0))
    body = layout_to_ppm(lg)
    assert body.startswith(b"P6\n2 2\n255\n")
    pixels = body[len(b"P6\n2 2\n255\n") :]
    # row-major pixels: (x0,y1) (x1,y1) (x0,y0) (x1,y0)
    assert pixels[0:3] == bytes([0, 0, 0])
    assert pixels[9:12] == bytes([40, 90, 150])


def test_render_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.random((8, 8))
    assert heatmap_to_pgm(grid) == heatmap_to_pgm(grid.copy())
