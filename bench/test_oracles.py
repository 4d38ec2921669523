"""Self-test of the benchmark's oracles: each accepts the program's output
and rejects a deliberately corrupted copy of it.

    python3 -m pytest -q bench/test_oracles.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from scenecomp import layout, metrics, model, nn, render  # noqa: E402
from scenecomp.catalog import default_catalog  # noqa: E402
from scenecomp.dataset import default_templates, generate_synthetic_scene, make_sample  # noqa: E402
from scenecomp.graphs import augment  # noqa: E402

GRID = 16


@pytest.fixture(scope="module")
def scenes():
    catalog = default_catalog()
    out = []
    for seed in (11, 12, 13):
        truth = augment(generate_synthetic_scene(default_templates(), 3, seed, catalog), 0.25, seed)
        out.append((make_sample(truth, 0.25, GRID, seed), truth))
    return out


def _moved(grid: np.ndarray) -> np.ndarray:
    """The same grid with half the mass of its peak cell moved to its lowest cell."""
    moved = grid.copy()
    src, dst = np.argmax(moved), np.argmin(moved)
    half = moved.flat[src] / 2
    moved.flat[src] -= half
    moved.flat[dst] += half
    return moved


def _present_pair(sample):
    target = sample.target_heatmaps.data
    r, c = np.argwhere(target.sum(axis=(2, 3)) > 0)[0]
    p = np.full((GRID, GRID), 1.0 / GRID**2)
    return p, target[r, c]


@pytest.mark.parametrize("kind, fn", [("wasserstein", metrics.wasserstein_grid),
                                      ("energy", metrics.energy_grid)])
def test_distance_rejects_moved_mass(scenes, kind, fn):
    p, q = _present_pair(scenes[0][0])
    oracles.check_distance(kind, fn(p, q), p, q)
    with pytest.raises(CheckFailed):
        oracles.check_distance(kind, fn(p, _moved(q)), p, q)


def test_pooled_mean_rejects_moved_mass(scenes):
    p, q = _present_pair(scenes[0][0])
    values = [oracles.w1_oracle(p, q), oracles.w1_oracle(q, q)]
    oracles.check_mean("W1", metrics.wasserstein_grid(p, q) / 2, values)
    with pytest.raises(CheckFailed):
        oracles.check_mean("W1", metrics.wasserstein_grid(p, _moved(q)) / 2, values)


def test_target_heatmaps_reject_moved_mass(scenes):
    sample, truth = scenes[0]
    target = sample.target_heatmaps.data
    oracles.check_target_heatmaps(target, truth.nodes, truth.edges)
    r, c = np.argwhere(target.sum(axis=(2, 3)) > 0)[0]
    corrupted = target.copy()
    corrupted[r, c] = _moved(target[r, c])
    with pytest.raises(CheckFailed):
        oracles.check_target_heatmaps(corrupted, truth.nodes, truth.edges)


def test_counts_reject_an_extra_instance(scenes):
    sample, truth = scenes[0]
    g = sample.graph
    n_objects = sum(1 for n in truth.nodes if n.layer == "object")
    args = (g.nodes, g.edges, len(sample.masked), n_objects, 0.25)
    oracles.check_sample_counts(sample.counts.data, *args)
    counts = sample.counts.data.copy()
    counts[0, 0] += 1
    with pytest.raises(CheckFailed):
        oracles.check_sample_counts(counts, *args)


def test_read_back_rejects_one_changed_value(scenes):
    a = scenes[0][0].target_heatmaps.data
    oracles.check_equal_arrays("target", a.copy(), a)
    b = a.copy()
    b.flat[0] = np.nextafter(b.flat[0], 1.0)
    with pytest.raises(CheckFailed):
        oracles.check_equal_arrays("target", b, a)


def test_layout_rejects_shifted_placement_and_changed_cell(scenes):
    sample, _ = scenes[1]
    heat = sample.target_heatmaps
    blind = oracles.blind_counts(sample.graph.nodes, sample.graph.edges)
    threshold = layout.default_threshold(GRID)
    ri = next(i for i, rid in enumerate(heat.room_ids) if blind[rid])
    room_id, frame, stack = heat.room_ids[ri], heat.room_frames[ri], heat.data[ri]
    lg = layout.extract_layout(stack, threshold, frame)
    placed = [(p.class_index, p.cell, p.xy, p.low_support)
              for p in layout.place_blind_nodes(stack, sorted(blind[room_id].items()), lg, frame)]
    oracles.check_layout(lg.cells, placed, stack, threshold, blind[room_id], frame)

    c, (i, j), _, low = placed[0]
    shifted_cell = (i, (j + 1) % GRID)
    shifted = [(c, shifted_cell, layout.grid_to_world(frame, shifted_cell, GRID), low)] + placed[1:]
    with pytest.raises(CheckFailed):
        oracles.check_layout(lg.cells, shifted, stack, threshold, blind[room_id], frame)

    cells = lg.cells.copy()
    cells[0, 0] = oracles.EMPTY if cells[0, 0] != oracles.EMPTY else 0
    with pytest.raises(CheckFailed):
        oracles.check_layout(cells, placed, stack, threshold, blind[room_id], frame)


@pytest.fixture(scope="module")
def small_model(scenes):
    config = nn.ModelConfig(variant=model.BASE, n_classes=default_catalog().n, grid_size=GRID, hidden=8)
    m = model.new_model(config, default_catalog().hash(), seed=3)
    m, _ = model.train(m, [s for s, _ in scenes], None, model.TrainConfig(epochs=2, lr=1e-3))
    return m


def test_batching_rejects_scaled_loss(scenes, small_model):
    encoded = [model.encode_inputs(s, small_model) for s, _ in scenes]
    batched = model.validation_loss(small_model, encoded)
    per_graph = [model.validation_loss(small_model, [e]) for e in encoded]
    rows = [len(e.room_rows) for e in encoded]
    oracles.check_batching(batched, per_graph, rows)
    with pytest.raises(CheckFailed):
        oracles.check_batching(batched * (1 + 1e-9), per_graph, rows)


def test_prediction_rejects_lost_normalization(scenes, small_model):
    sample = scenes[2][0]
    data = model.predict(small_model, sample).data
    counts = oracles.class_counts(sample.graph.nodes, sample.graph.edges, data.shape[1])
    oracles.check_prediction(data, counts)
    r, c = np.argwhere(counts > 0)[0]
    scaled = data.copy()
    scaled[r, c] *= 1.01
    with pytest.raises(CheckFailed):
        oracles.check_prediction(scaled, counts)
    leaked = data.copy()
    r, c = np.argwhere(counts == 0)[0]
    leaked[r, c, 0, 0] = 1e-12
    with pytest.raises(CheckFailed):
        oracles.check_prediction(leaked, counts)


def test_netpbm_rejects_truncated_image(scenes, tmp_path):
    heat = scenes[0][0].target_heatmaps
    lg = layout.extract_layout(heat.data[0], layout.default_threshold(GRID))
    data = render.render_layout(heat.room_ids[0], lg, tmp_path).read_bytes()
    oracles.check_netpbm(data, "P6", GRID)
    with pytest.raises(CheckFailed):
        oracles.check_netpbm(data[:-1], "P6", GRID)
    with pytest.raises(CheckFailed):
        oracles.check_netpbm(data, "P6", GRID * 2)
