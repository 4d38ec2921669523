import base64
import json

import numpy as np
import pytest

import scenecomp.dataset as dataset_module
from scenecomp.catalog import default_catalog
from scenecomp.cli import RunConfig, cmd_eval, main
from scenecomp.dataset import (
    BsgSample,
    build_sample,
    default_templates,
    draw_masked,
    generate_synthetic_scene,
    heatmaps_from_dict,
    heatmaps_to_dict,
    load_dataset,
    make_sample,
    sample_from_dict,
    sample_to_dict,
    save_dataset,
    split_dataset,
    splitmix64,
    synthetic_dataset,
    template_by_name,
)
from scenecomp.errors import (
    ConfigMismatchError,
    EmptyDatasetError,
    EmptyGraphError,
    NoTruthGraphError,
    UnreadableInputError,
)
from scenecomp.graphs import GROUND_TRUTH, OBJECT, augment, build_graph, graph_to_dict, rooms_of
from scenecomp.raster import HeatmapSet, rasterize, room_frame

from conftest import simple_graph, toy_samples
from raster_oracles import loop_rasterize
from test_raster import assert_samples_identical


def test_make_sample_counts_match(catalog):
    g = simple_graph(catalog, (6, 4))
    s = make_sample(g, 0.25, grid_size=8, seed=5)
    # counts on the belief graph (objects + blind) equal ground-truth counts
    _, gt_counts = rasterize(g, 8)
    np.testing.assert_array_equal(s.counts.data, gt_counts.data)
    assert len(s.masked) == round(0.25 * 10)


def test_make_sample_minimum_masking(catalog):
    g = simple_graph(catalog, (3,))
    s = make_sample(g, 0.0, grid_size=8, seed=1)
    assert len(s.masked) == 1
    assert not np.allclose(s.input_heatmaps.data, s.target_heatmaps.data)


def test_mask_only_instance_zeroes_input(catalog):
    g = simple_graph(catalog, (1,))
    s = make_sample(g, 1.0, grid_size=8, seed=0)
    room_id, ci, _ = s.masked[0]
    ri = s.input_heatmaps.room_ids.index(room_id)
    assert s.input_heatmaps.data[ri, ci].sum() == 0.0
    assert s.counts.data[ri, ci] >= 1


def test_make_sample_deterministic(catalog):
    g = simple_graph(catalog, (8, 5))
    s1 = make_sample(g, 0.25, 8, seed=42)
    s2 = make_sample(g, 0.25, 8, seed=42)
    assert s1.masked == s2.masked
    np.testing.assert_array_equal(s1.input_heatmaps.data, s2.input_heatmaps.data)


def test_masking_equals_delete_and_rerasterize(catalog):
    # renormalized partial heatmaps == rasterizing the graph minus the masked nodes
    g = simple_graph(catalog, (7, 6))
    s = make_sample(g, 0.3, grid_size=8, seed=9)
    masked_ids = {node_id for _, _, node_id in s.masked}
    nodes = [n for n in g.nodes if n.id not in masked_ids]
    edges = [e for e in g.edges if e[1] not in masked_ids]
    frames = {r.id: room_frame(g, r.id) for r in rooms_of(g)}
    pruned = build_graph(nodes, edges, GROUND_TRUTH, catalog)
    oracle, _ = loop_rasterize(pruned, 8, frames_override=frames)
    np.testing.assert_allclose(s.input_heatmaps.data, oracle.data, atol=1e-12)


def test_make_sample_empty(catalog):
    g = simple_graph(catalog, (0,))
    with pytest.raises(EmptyGraphError):
        make_sample(g, 0.25, 8, 0)
    with pytest.raises(EmptyGraphError):
        draw_masked(g, 0.25, 0)


def test_make_sample_is_draw_then_build(catalog):
    g = simple_graph(catalog, (7, 6))
    ids = draw_masked(g, 0.3, seed=9)
    assert list(ids) == sorted(ids) and len(ids) == round(0.3 * 13)
    a, b = make_sample(g, 0.3, 8, seed=9), build_sample(g, ids, 8)
    for name in ("input_heatmaps", "target_heatmaps", "counts"):
        assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes()
    assert a.graph == b.graph and a.masked == b.masked
    assert a.truth is b.truth is g


def test_kitchen_template_rules(catalog):
    kitchen = template_by_name("kitchen")
    g = generate_synthetic_scene((kitchen,), 1, seed=7, catalog=catalog)
    room = rooms_of(g)[0]
    classes = [catalog.label(n.class_index) for n in g.nodes_in_layer(OBJECT)]
    assert classes.count("refrigerator") >= 1
    assert classes.count("stove") >= 1
    # stove stays out of the corner band of its wall
    frame = room_frame(g, room.id)
    w, h = frame[2] - frame[0], frame[3] - frame[1]
    stove = next(n for n in g.nodes_in_layer(OBJECT) if catalog.label(n.class_index) == "stove")
    fx = (stove.position[0] - frame[0]) / w
    fy = (stove.position[1] - frame[1]) / h
    on_x_wall = fx < 0.2 or fx > 0.8
    on_y_wall = fy < 0.2 or fy > 0.8
    assert not (on_x_wall and on_y_wall)


def test_zero_rooms(catalog):
    g = generate_synthetic_scene((template_by_name("office"),), 0, seed=0, catalog=catalog)
    assert len(g.nodes) == 1
    assert g.nodes[0].layer == "building"


def test_seed_variation(catalog):
    # different seeds should usually produce different object multisets
    kitchen = template_by_name("kitchen")

    def multiset(seed):
        g = generate_synthetic_scene((kitchen,), 1, seed, catalog)
        return tuple(sorted(n.class_index for n in g.nodes_in_layer(OBJECT)))

    draws = {multiset(seed) for seed in range(100)}
    assert len(draws) > 10


def test_generation_deterministic(catalog):
    tpl = (template_by_name("bedroom"), template_by_name("office"))
    g1 = generate_synthetic_scene(tpl, 4, seed=13, catalog=catalog)
    g2 = generate_synthetic_scene(tpl, 4, seed=13, catalog=catalog)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges


def test_split_sizes():
    samples = list(range(10))
    train, val, test = split_dataset(samples, seed=1)
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    assert sorted(train + val + test) == samples

    # largest remainder: quotas 2.4/0.3/0.3, the leftover goes to train
    train, val, test = split_dataset(list(range(3)), seed=0)
    assert (len(train), len(val), len(test)) == (3, 0, 0)
    assert sorted(train + val + test) == [0, 1, 2]


def test_split_deterministic():
    s = list(range(50))
    assert split_dataset(s, seed=4) == split_dataset(s, seed=4)


def hand_loop_splits(seed, n_scenes, n_rooms, grid_size):
    """The seed scheme as callers wrote it out before `synthetic_dataset`:
    the oracle of that function's scenes, masks and splits."""
    catalog, templates = default_catalog(), default_templates()
    samples = []
    for i in range(n_scenes):
        scene_seed = splitmix64(seed, i)
        g = generate_synthetic_scene(templates, n_rooms, scene_seed, catalog)
        g_aug = augment(g, 0.25, splitmix64(scene_seed, 1))
        samples.append(make_sample(g_aug, 0.25, grid_size, splitmix64(scene_seed, 2)))
    return split_dataset(samples, seed=seed)


# the set-ups of test_acceptance_8 and demos/02_train_and_evaluate.py
@pytest.mark.parametrize("seed, n_scenes", [(99, 500), (7, 40)])
def test_synthetic_dataset_equals_hand_loop(seed, n_scenes):
    pairs, splits = synthetic_dataset(seed, n_scenes, 3)
    want = hand_loop_splits(seed, n_scenes, 3, 16)
    assert len(pairs) == n_scenes
    assert [len(split) for split in splits] == [len(split) for split in want]
    for split, want_split in zip(splits, want):
        for (g, ids), w in zip(split, want_split):
            assert_samples_identical(build_sample(g, ids, 16), w)


def test_sample_round_trip(small_catalog, toy_template):
    # a sample file holds the augmented graph and the masked ids: reading
    # builds every field again, bitwise as make_sample built it
    for grid_size in (8, 16, 32):
        for s in toy_samples(small_catalog, toy_template, n=3, grid_size=grid_size):
            d = json.loads(json.dumps(sample_to_dict(s)))
            assert list(d) == ["version", "graph", "masked_ids"]
            assert d["masked_ids"] == sorted(node_id for _, _, node_id in s.masked)
            s2 = sample_from_dict(d, grid_size)
            for name in ("input_heatmaps", "target_heatmaps"):
                h, h2 = getattr(s, name), getattr(s2, name)
                assert h2.data.tobytes() == h.data.tobytes()
                assert (h2.data.shape, h2.room_ids, h2.grid_size, h2.room_frames) == (
                    h.data.shape, h.room_ids, h.grid_size, h.room_frames
                )
            assert s2.counts.data.dtype == s.counts.data.dtype
            assert s2.counts.data.tobytes() == s.counts.data.tobytes()
            assert s2.counts.room_ids == s.counts.room_ids
            assert s.masked == s2.masked
            for g, g2 in ((s.graph, s2.graph), (s.truth, s2.truth)):
                assert (g.nodes, g.edges, g.kind) == (g2.nodes, g2.edges, g2.kind)
                assert g.catalog == g2.catalog


def test_sample_without_truth_not_saved(tmp_path, small_catalog, toy_template):
    s = toy_samples(small_catalog, toy_template, n=1, grid_size=8)[0]
    bare = BsgSample(s.graph, s.input_heatmaps, s.counts, s.target_heatmaps, s.masked)
    with pytest.raises(NoTruthGraphError):
        save_dataset([bare], ([bare], [], []), tmp_path, 8, small_catalog, master_seed=0)
    assert not (tmp_path / "manifest.json").exists()


def test_dataset_dir_round_trip(tmp_path, small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=6, grid_size=8)
    splits = split_dataset(samples, seed=0)
    save_dataset(samples, splits, tmp_path, 8, small_catalog, master_seed=0)
    manifest, loaded = load_dataset(tmp_path)
    assert manifest["grid_size"] == 8
    assert manifest["catalog_hash"] == small_catalog.hash()
    total = sum(len(v) for v in loaded.values())
    assert total == 6
    # a sample read back saves to the same bytes
    back = [s for split in ("train", "val", "test") for s in loaded[split]]
    assert [sample_to_dict(s) for s in back] == [
        sample_to_dict(s) for split in splits for s in split
    ]


@pytest.mark.parametrize("grid_size", [0, -1, True, 8.0])
def test_manifest_grid_size_must_be_a_positive_int(tmp_path, small_catalog, toy_template, grid_size):
    samples = toy_samples(small_catalog, toy_template, n=2, grid_size=8)
    save_dataset(samples, split_dataset(samples, seed=0), tmp_path, 8, small_catalog, master_seed=0)
    _rewrite(tmp_path / "manifest.json", lambda m: m.update(grid_size=grid_size))
    with pytest.raises(UnreadableInputError, match=f"grid size {grid_size!r} is not a positive int"):
        load_dataset(tmp_path)


def test_splitmix_spread():
    seeds = [splitmix64(123, i) for i in range(1000)]
    assert len(set(seeds)) == 1000


# --- heatmap encoding -----------------------------------------------------

# The dense encoder of dataset format version 1, kept verbatim as the oracle.
def _array_to_b64(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def dense_heatmaps_to_dict(h: HeatmapSet) -> dict:
    return {
        "room_ids": list(h.room_ids),
        "grid_size": h.grid_size,
        "room_frames": [list(f) for f in h.room_frames],
        "shape": list(h.data.shape),
        "data_b64": _array_to_b64(h.data),
    }


def _dense_data(d: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(d["data_b64"]), dtype="<f8").reshape(d["shape"])


def _heatmap_sets(case, small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=3, grid_size=8)
    generated = [h for s in samples for h in (s.input_heatmaps, s.target_heatmaps)]
    h = generated[0]
    if case == "generated":
        return generated
    if case == "negative-zero":
        data = h.data.copy()
        absent = int(np.flatnonzero(data[0].sum(axis=(1, 2)) == 0)[0])
        data[0, absent] = -0.0
        return [HeatmapSet(data, h.room_ids, h.grid_size, h.room_frames)]
    if case == "all-zero":
        return [HeatmapSet(np.zeros_like(h.data), h.room_ids, h.grid_size, h.room_frames)]
    assert case == "roomless"
    return [HeatmapSet(np.zeros((0, small_catalog.n, 8, 8)), (), 8, ())]


@pytest.mark.parametrize("case", ["generated", "negative-zero", "all-zero", "roomless"])
def test_sparse_heatmaps_match_dense_oracle(small_catalog, toy_template, case):
    for h in _heatmap_sets(case, small_catalog, toy_template):
        d = json.loads(json.dumps(heatmaps_to_dict(h)))
        dense = dense_heatmaps_to_dict(h)
        assert {k: d[k] for k in dense if k != "data_b64"} == {
            k: v for k, v in dense.items() if k != "data_b64"
        }
        planes = h.data.reshape(-1, 64)
        assert d["planes"] == [i for i, p in enumerate(planes) if p.view(np.int64).any()]
        back = heatmaps_from_dict(d)
        assert back.data.shape == h.data.shape
        assert back.data.tobytes() == _dense_data(dense).tobytes() == h.data.tobytes()
        assert (back.room_ids, back.grid_size, back.room_frames) == (
            h.room_ids,
            h.grid_size,
            h.room_frames,
        )


def _write_config(tmp_path, name, **values):
    cfg = {"checkpoint": str(tmp_path / "checkpoint.json"), "output_dir": str(tmp_path / "out")}
    cfg.update(grid_size=8, seed=3, n_scenes=4, n_rooms=2, hidden=8, epochs=1)
    cfg.update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _generate(tmp_path, grid_size, **values):
    ds = tmp_path / f"ds{grid_size}"
    cfg = _write_config(
        tmp_path, f"c{grid_size}.json", dataset_dir=str(ds), grid_size=grid_size, **values
    )
    assert main(["--config", str(cfg), "generate"]) == 0
    return cfg, ds


def _rewrite(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _to_version_3(doc):
    # version 3 stored the belief graph, the target heatmaps (here of a grid
    # size 8 dataset) and the masked [room, class, node] triples
    s = sample_from_dict(doc, 8)
    doc.clear()
    doc.update(
        version=3,
        graph=graph_to_dict(s.graph),
        target_heatmaps=heatmaps_to_dict(s.target_heatmaps),
        masked=[list(m) for m in s.masked],
    )


def _to_version_2(doc):
    # version 2 also stored the input heatmaps and counts
    s = sample_from_dict(doc, 8)
    _to_version_3(doc)
    doc["version"] = 2
    doc["input_heatmaps"] = heatmaps_to_dict(s.input_heatmaps)
    doc["counts"] = {"room_ids": list(s.counts.room_ids), "data": s.counts.data.tolist()}


def _to_version_1(doc):
    _to_version_2(doc)
    doc["version"] = 1
    for key in ("input_heatmaps", "target_heatmaps"):
        doc[key] = dense_heatmaps_to_dict(heatmaps_from_dict(doc[key]))


@pytest.mark.parametrize(
    "version, whole",
    [(1, True), (1, False), (2, True), (2, False), (3, True), (3, False)],
    ids=[
        "dataset",
        "one-sample",
        "version-2-dataset",
        "version-2-one-sample",
        "version-3-dataset",
        "version-3-one-sample",
    ],
)
def test_version_1_dataset_refused(tmp_path, capsys, version, whole):
    cfg, ds = _generate(tmp_path, 8)
    to_version = {1: _to_version_1, 2: _to_version_2, 3: _to_version_3}[version]
    sample = sorted((ds / "samples").iterdir())[1]
    _rewrite(sample, to_version)
    if whole:
        for other in (ds / "samples").iterdir():
            if other != sample:
                _rewrite(other, to_version)
        _rewrite(ds / "manifest.json", lambda m: m.update(version=version))
    capsys.readouterr()
    assert main(["--config", str(cfg), "train"]) == 1
    err = capsys.readouterr().err
    what = "dataset manifest" if whole else f"dataset sample {sample}"
    assert err.startswith(f"error: {what}")
    assert f"has format version {version}; only version 4 can be read: regenerate" in err


def test_sample_files_do_not_depend_on_grid_size(tmp_path):
    # the same seed writes the same sample files at any grid size; only the
    # manifest names the size the samples are built at
    _, ds8 = _generate(tmp_path, 8)
    _, ds16 = _generate(tmp_path, 16)
    files8, files16 = (
        {p.name: p.read_bytes() for p in (ds / "samples").iterdir()} for ds in (ds8, ds16)
    )
    assert len(files8) == 4 and files8 == files16
    m8, m16 = (json.loads((ds / "manifest.json").read_text()) for ds in (ds8, ds16))
    assert (m8.pop("grid_size"), m16.pop("grid_size")) == (8, 16) and m8 == m16
    for split, samples in load_dataset(ds16)[1].items():
        for s in samples:
            assert s.input_heatmaps.grid_size == s.target_heatmaps.grid_size == 16


def test_sample_of_other_catalog_refused(tmp_path, small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=2, grid_size=8)
    save_dataset(samples, split_dataset(samples, seed=0), tmp_path, 8, default_catalog(), 0)
    with pytest.raises(ConfigMismatchError, match="catalog hash differs from the manifest's"):
        load_dataset(tmp_path)


NOT_NAMES = "split {!r} is not a list of sample file names"
MASKED_IDS = "masked_ids must list one or more distinct object node ids"


def _set_split(name, value):
    return lambda d: d["splits"].update({name: value})


def _first_of_split(name, value):
    return lambda d: d["splits"][name].__setitem__(0, value)


def _first_masked_id(value):
    return lambda d: d["masked_ids"].__setitem__(0, value(d))


def _first_room(d):
    return next(n for n in d["graph"]["nodes"] if n["layer"] == "room")


def _to_belief_graph(d):
    d["graph"] = graph_to_dict(sample_from_dict(d, 8).graph)


@pytest.mark.parametrize(
    "command, file, change, message",
    [
        ("train", "manifest.json", lambda d: d.pop("splits"), "unreadable dataset manifest"),
        ("train", "manifest.json", lambda d: d.update(splits=["train"]), "unreadable dataset manifest"),
        ("train", "sample_00000.json", lambda d: d.pop("graph"), "unreadable dataset sample"),
        ("train", "sample_00000.json", lambda d: d.pop("masked_ids"), "unreadable dataset sample"),
        ("train", "manifest.json", lambda d: d["splits"].pop("train"), "has no 'train' split"),
        ("eval", "manifest.json", lambda d: d["splits"].pop("test"), "has no 'test' split"),
        ("eval", "manifest.json", _set_split("test", "sample_00001.json"), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _set_split("test", {"0": "sample_00001.json"}), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _first_of_split("test", "../manifest.json"), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _first_of_split("test", "samples/x.json"), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _first_of_split("test", "sample_00001"), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _first_of_split("test", 1), NOT_NAMES.format("test")),
        ("eval", "manifest.json", _first_of_split("train", "../manifest.json"), NOT_NAMES.format("train")),
        ("train", "manifest.json", _set_split("test", "sample_00001.json"), NOT_NAMES.format("test")),
        # a sample's target is built at its manifest's grid size
        ("train", "manifest.json", lambda d: d.update(grid_size=0), "grid size 0 is not a positive int"),
        ("train", "sample_00000.json", lambda d: d.update(masked_ids="abc"), MASKED_IDS),
        ("train", "sample_00000.json", lambda d: d.update(masked_ids=[]), MASKED_IDS),
        ("train", "sample_00000.json", lambda d: d["masked_ids"].append(d["masked_ids"][0]), MASKED_IDS),
        ("train", "sample_00000.json", _first_masked_id(lambda d: float(d["masked_ids"][0])), MASKED_IDS),
        ("train", "sample_00000.json", _first_masked_id(lambda d: _first_room(d)["id"]), MASKED_IDS),
        ("train", "sample_00000.json", _first_masked_id(lambda d: 10**6), MASKED_IDS),
        ("train", "sample_00000.json", _to_belief_graph, "holds blind nodes"),
        ("train", "sample_00000.json", lambda d: d["graph"].update(nodes=3), "nodes and edges must be lists"),
        ("train", "sample_00000.json", lambda d: d.update(graph=[1, 2]), "a graph is not a JSON object"),
        (
            "train",
            "sample_00000.json",
            lambda d: _first_room(d)["dimensions"].__setitem__(0, float("inf")),
            "has a non-finite extent",
        ),
        (
            "train",
            "sample_00000.json",
            lambda d: _first_room(d).update(position=[1e17, 0.0, 1.5], dimensions=[1.0, 4.0, 3.0]),
            "of zero area",
        ),
    ],
    ids=[
        "manifest-without-splits",
        "splits-not-an-object",
        "sample-without-graph",
        "sample-without-masked-ids",
        "train-without-train-split",
        "eval-without-test-split",
        "split-a-string",
        "split-an-object",
        "name-outside-samples",
        "name-with-directory",
        "name-without-json",
        "name-not-a-string",
        "unread-split-checked",
        "unread-split-checked-by-train",
        "target-of-grid-size-0",
        "masked-a-string",
        "masked-ids-empty",
        "masked-id-repeated",
        "masked-id-a-float",
        "masked-id-not-an-object",
        "masked-id-not-in-graph",
        "graph-of-blind-nodes",
        "graph-nodes-an-int",
        "graph-not-an-object",
        "room-extent-not-finite",
        "room-extent-of-no-width",
    ],
)
def test_malformed_dataset_fails_cleanly(tmp_path, capsys, command, file, change, message):
    cfg, ds = _generate(tmp_path, 8, n_scenes=10)
    path = ds / file if file == "manifest.json" else ds / "samples" / file
    _rewrite(path, change)
    capsys.readouterr()
    assert main(["--config", str(cfg), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert str(path) in err


# --- which samples each command reads --------------------------------------


@pytest.fixture
def trained(tmp_path):
    """A 10-scene dataset (8/1/1 train/val/test) and a checkpoint trained on it."""
    cfg, ds = _generate(tmp_path, 8, n_scenes=10)
    assert main(["--config", str(cfg), "train"]) == 0
    splits = json.loads((ds / "manifest.json").read_text())["splits"]
    assert [len(splits[k]) for k in ("train", "val", "test")] == [8, 1, 1]
    return cfg, ds, splits


def _count_sample_reads(monkeypatch):
    read = []
    load_sample = dataset_module._load_sample

    def counting(path, *args):
        read.append(path.name)
        return load_sample(path, *args)

    monkeypatch.setattr(dataset_module, "_load_sample", counting)
    return read


def test_manifest_of_other_grid_size_refused_before_any_sample_is_read(tmp_path, monkeypatch):
    _, ds = _generate(tmp_path, 8)
    read = _count_sample_reads(monkeypatch)
    with pytest.raises(ConfigMismatchError, match="dataset grid size 8 != configured 16"):
        load_dataset(ds, grid_size=16)
    assert read == []
    assert len(load_dataset(ds, ("train",), 8)[1]["train"]) == len(read) > 0


@pytest.mark.parametrize("command, split_names", [("train", ("train", "val")), ("eval", ("test",))])
def test_command_reads_exactly_its_splits(trained, monkeypatch, command, split_names):
    cfg, _, splits = trained
    read = _count_sample_reads(monkeypatch)
    assert main(["--config", str(cfg), command]) == 0
    assert read == [name for split in split_names for name in splits[split]]


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def test_eval_ignores_a_truncated_train_sample(trained, tmp_path):
    cfg, ds, splits = trained
    report = tmp_path / "out" / "metrics_report.json"
    assert main(["--config", str(cfg), "eval"]) == 0
    before = report.read_bytes()
    report.unlink()
    _truncate(ds / "samples" / splits["train"][0])
    assert main(["--config", str(cfg), "eval"]) == 0
    assert report.read_bytes() == before


def test_eval_fails_on_a_truncated_test_sample(trained, capsys):
    cfg, ds, splits = trained
    sample = ds / "samples" / splits["test"][0]
    _truncate(sample)
    capsys.readouterr()
    assert main(["--config", str(cfg), "eval"]) == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable JSON file {sample}: ")


def test_eval_of_an_empty_test_split_fails(tmp_path, capsys):
    # 6 scenes split 5/1/0: there is nothing to score
    cfg, ds = _generate(tmp_path, 8, n_scenes=6)
    assert main(["--config", str(cfg), "train"]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg), "eval"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: dataset manifest {ds / 'manifest.json'} has an empty 'test' split\n"
    assert not (tmp_path / "out" / "metrics_report.json").exists()
    with pytest.raises(EmptyDatasetError):
        cmd_eval(RunConfig.load(cfg, {}))


def test_load_dataset_of_named_splits_equals_whole_load(tmp_path):
    _, ds = _generate(tmp_path, 8, n_scenes=10)
    manifest, whole = load_dataset(ds)
    assert list(whole) == ["test", "train", "val"]  # the manifest's sorted keys
    assert [len(whole[k]) for k in ("train", "val", "test")] == [8, 1, 1]
    named_manifest, named = load_dataset(ds, ("test",))
    assert named_manifest == manifest and list(named) == ["test"]
    assert load_dataset(ds, ("absent",))[1] == {}
    for a, b in zip(named["test"], whole["test"], strict=True):
        for h in ("input_heatmaps", "target_heatmaps", "counts"):
            assert getattr(a, h).data.tobytes() == getattr(b, h).data.tobytes()
            assert getattr(a, h).room_ids == getattr(b, h).room_ids
        assert a.input_heatmaps.room_frames == b.input_heatmaps.room_frames
        assert a.graph.nodes == b.graph.nodes and a.graph.edges == b.graph.edges
        assert a.masked == b.masked
