import base64
import json
import shutil

import numpy as np
import pytest

from scenecomp.catalog import default_catalog
from scenecomp.cli import main
from scenecomp.dataset import (
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
    template_by_name,
)
from scenecomp.errors import BadRatiosError, ConfigMismatchError, EmptyGraphError
from scenecomp.graphs import GROUND_TRUTH, OBJECT, build_graph, rooms_of
from scenecomp.raster import HeatmapSet, rasterize, room_frame

from conftest import simple_graph, toy_samples


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
    oracle, _ = rasterize(pruned, 8, frames_override=frames)
    np.testing.assert_allclose(s.input_heatmaps.data, oracle.data, atol=1e-12)


def test_make_sample_empty(catalog):
    g = simple_graph(catalog, (0,))
    with pytest.raises(EmptyGraphError):
        make_sample(g, 0.25, 8, 0)


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


def test_split_bad_ratios():
    with pytest.raises(BadRatiosError):
        split_dataset([1, 2, 3], ratios=(0.5, 0.5, 0.5))


def test_split_deterministic():
    s = list(range(50))
    assert split_dataset(s, seed=4) == split_dataset(s, seed=4)


def test_sample_round_trip(small_catalog, toy_template):
    s = toy_samples(small_catalog, toy_template, n=1)[0]
    s2 = sample_from_dict(sample_to_dict(s))
    np.testing.assert_array_equal(s.input_heatmaps.data, s2.input_heatmaps.data)
    np.testing.assert_array_equal(s.target_heatmaps.data, s2.target_heatmaps.data)
    np.testing.assert_array_equal(s.counts.data, s2.counts.data)
    assert s.masked == s2.masked
    assert s.graph.edges == s2.graph.edges


def test_dataset_dir_round_trip(tmp_path, small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=6, grid_size=8)
    splits = split_dataset(samples, seed=0)
    save_dataset(samples, splits, tmp_path, 8, small_catalog, master_seed=0)
    manifest, loaded = load_dataset(tmp_path)
    assert manifest["grid_size"] == 8
    assert manifest["catalog_hash"] == small_catalog.hash()
    total = sum(len(v) for v in loaded.values())
    assert total == 6


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


def _generate(tmp_path, grid_size):
    ds = tmp_path / f"ds{grid_size}"
    cfg = _write_config(tmp_path, f"c{grid_size}.json", dataset_dir=str(ds), grid_size=grid_size)
    assert main(["--config", str(cfg), "generate"]) == 0
    return cfg, ds


def _rewrite(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _to_version_1(doc):
    doc["version"] = 1
    for key in ("input_heatmaps", "target_heatmaps"):
        doc[key] = dense_heatmaps_to_dict(heatmaps_from_dict(doc[key]))


@pytest.mark.parametrize("whole", [True, False], ids=["dataset", "one-sample"])
def test_version_1_dataset_refused(tmp_path, capsys, whole):
    cfg, ds = _generate(tmp_path, 8)
    sample = sorted((ds / "samples").iterdir())[1]
    _rewrite(sample, _to_version_1)
    if whole:
        for other in (ds / "samples").iterdir():
            if other != sample:
                _rewrite(other, _to_version_1)
        _rewrite(ds / "manifest.json", lambda m: m.update(version=1))
    capsys.readouterr()
    assert main(["--config", str(cfg), "train"]) == 1
    err = capsys.readouterr().err
    what = "dataset manifest" if whole else f"dataset sample {sample}"
    assert err.startswith(f"error: {what}")
    assert "has format version 1; only version 2 can be read: regenerate" in err


def test_sample_of_other_grid_size_refused(tmp_path, capsys):
    cfg, ds = _generate(tmp_path, 32)
    _, small = _generate(tmp_path, 16)
    sample = sorted((ds / "samples").iterdir())[0]
    shutil.copyfile(small / "samples" / sample.name, sample)
    capsys.readouterr()
    assert main(["--config", str(cfg), "train"]) == 1
    assert capsys.readouterr().err == (
        f"error: dataset sample {sample}: grid size 16 != manifest grid size 32\n"
    )


def test_sample_of_other_catalog_refused(tmp_path, small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=2, grid_size=8)
    save_dataset(samples, split_dataset(samples, seed=0), tmp_path, 8, default_catalog(), 0)
    with pytest.raises(ConfigMismatchError, match="catalog hash differs from the manifest's"):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "file, change, message",
    [
        ("manifest.json", lambda d: d.pop("splits"), "unreadable dataset manifest"),
        ("manifest.json", lambda d: d.update(splits=["train"]), "unreadable dataset manifest"),
        ("sample_00000.json", lambda d: d.pop("graph"), "unreadable dataset sample"),
        ("sample_00000.json", lambda d: d["target_heatmaps"].pop("planes"), "lack the keys ['planes']"),
    ],
    ids=["manifest-without-splits", "splits-not-an-object", "sample-without-graph", "dense-heatmaps"],
)
def test_malformed_dataset_fails_cleanly(tmp_path, capsys, file, change, message):
    cfg, ds = _generate(tmp_path, 8)
    _rewrite(ds / file if file == "manifest.json" else ds / "samples" / file, change)
    capsys.readouterr()
    assert main(["--config", str(cfg), "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
