"""Acceptance gate: one test per pinned end-to-end guarantee.

Each test prints a one-line verdict so a full run doubles as a report.
The comparative experiment is marked slow and deselected by default; run it
with `pytest -m slow`.
"""
import math
import time

import numpy as np
import pytest

from scenecomp import nn
from scenecomp.catalog import default_catalog
from scenecomp.dataset import build_sample, generate_synthetic_scene, make_sample, synthetic_dataset
from scenecomp.graphs import OBJECT, augment
from scenecomp.layout import EMPTY, extract_layout, place_blind_nodes
from scenecomp.metrics import energy_grid, four_moments, wasserstein_grid
from scenecomp.model import (
    BASE,
    BASE_ONT,
    TrainConfig,
    evaluate_model,
    new_model,
    predict,
    train,
)
from scenecomp.ontology import Ontology, class_affinity, default_ontology
from scenecomp.raster import rasterize, room_frame

from conftest import toy_samples
from raster_oracles import loop_rasterize
from test_metrics import energy_oracle, wasserstein_oracle


def test_acceptance_1_gradient_correctness():
    start = time.time()
    cfg = nn.ModelConfig(variant=BASE, n_classes=3, grid_size=4, hidden=8)
    err_full = nn.grad_check(cfg, seed=0, h=1e-5, n_nodes=4)
    assert err_full < 1e-4

    # the linear-only loss is quadratic in every single parameter, so central
    # differences carry no truncation error and a larger step only reduces
    # float64 cancellation noise
    lin = nn.ModelConfig(variant=BASE, n_classes=3, grid_size=4, hidden=8, linear_only=True)
    err_lin = nn.grad_check(lin, seed=0, h=1e-2, n_nodes=4)
    assert err_lin < 1e-8

    elapsed = time.time() - start
    assert elapsed < 30
    print(
        f"\n[acceptance 1] gradient check: full={err_full:.3e} (<1e-4), "
        f"linear={err_lin:.3e} (<1e-8), {elapsed:.1f}s"
    )


def test_acceptance_2_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(0)
    s = 8
    worst_w = worst_e = 0.0
    for _ in range(200):
        p = rng.random((s, s))
        q = rng.random((s, s))
        p /= p.sum()
        q /= q.sum()
        worst_w = max(worst_w, abs(wasserstein_grid(p, q) - wasserstein_oracle(p, q)))
        worst_e = max(worst_e, abs(energy_grid(p, q) - energy_oracle(p, q)))
    assert worst_w < 1e-10
    assert worst_e < 1e-10

    def point(idx):
        d = np.zeros(s * s)
        d[idx] = 1.0
        return d.reshape(s, s)

    n = s * s
    for a, b in [(0, n - 1), (5, 37), (12, 12), (60, 3)]:
        gap = abs(a - b) / (n - 1)
        assert wasserstein_grid(point(a), point(b)) == pytest.approx(gap, abs=1e-12)
        assert energy_grid(point(a), point(b)) == pytest.approx(math.sqrt(2 * gap), abs=1e-12)

    elapsed = time.time() - start
    assert elapsed < 10
    print(
        f"\n[acceptance 2] metric oracles: wasserstein={worst_w:.2e}, "
        f"energy={worst_e:.2e} (<1e-10), point masses exact, {elapsed:.1f}s"
    )


def test_acceptance_3_overfit_smoke_training(small_catalog, toy_template):
    start = time.time()
    samples = toy_samples(small_catalog, toy_template, n=5, grid_size=16)
    cfg = nn.ModelConfig(variant=BASE, n_classes=8, grid_size=16, hidden=32)
    tc = TrainConfig(epochs=2000, batch_size=5, lr=1e-3, lr_decay=0.0, seed=7)

    _, h1 = train(new_model(cfg, small_catalog.hash(), 11), samples, None, tc)
    _, h2 = train(new_model(cfg, small_catalog.hash(), 11), samples, None, tc)

    assert h1 == h2  # bitwise-identical loss histories
    first, final = h1[0]["train"], h1[-1]["train"]
    assert final < 0.1 * first

    elapsed = time.time() - start
    assert elapsed < 300
    print(
        f"\n[acceptance 3] overfit smoke: epoch-1 MSE {first:.3e} -> "
        f"final {final:.3e} ({final / first:.1%}), deterministic, {elapsed:.0f}s"
    )


def test_acceptance_4_prediction_normalization(small_catalog, toy_template):
    cfg = nn.ModelConfig(variant=BASE, n_classes=8, grid_size=8, hidden=16)
    model = new_model(cfg, small_catalog.hash(), 3)  # untrained on purpose
    checked = 0
    for seed in range(50):
        g = generate_synthetic_scene((toy_template,), 2, seed, small_catalog)
        sample = make_sample(g, 0.25, 8, seed)
        out = predict(model, sample)
        out.validate(atol=1e-9)
        sums = out.data.sum(axis=(2, 3))
        absent = sample.counts.data == 0
        assert np.all(sums[absent] == 0.0)
        assert np.allclose(sums[~absent], 1.0, atol=1e-9)
        checked += 1
    print(f"\n[acceptance 4] prediction invariants held on {checked} random samples")


def test_acceptance_5_data_pipeline_invariants(small_catalog, toy_template):
    from scenecomp.graphs import GROUND_TRUTH, build_graph, rooms_of

    worst = 0.0
    for seed in range(100):
        g = generate_synthetic_scene((toy_template,), 2, seed, small_catalog)
        n_obj = len(g.nodes_in_layer(OBJECT))
        g_aug = augment(g, 0.25, seed)
        removed = n_obj - len(g_aug.nodes_in_layer(OBJECT))
        assert removed == math.ceil(0.25 * n_obj)

        sample = make_sample(g_aug, 0.25, 8, seed)
        # O'' = O: belief-graph counts equal pre-masking counts entrywise
        _, counts = rasterize(g_aug, 8)
        np.testing.assert_array_equal(sample.counts.data, counts.data)

        # renormalized partial heatmaps == delete-and-rerasterize oracle
        masked_ids = {node_id for _, _, node_id in sample.masked}
        nodes = [n for n in g_aug.nodes if n.id not in masked_ids]
        edges = [e for e in g_aug.edges if e[1] not in masked_ids]
        frames = {r.id: room_frame(g_aug, r.id) for r in rooms_of(g_aug)}
        pruned = build_graph(nodes, edges, GROUND_TRUTH, small_catalog)
        oracle, _ = loop_rasterize(pruned, 8, frames_override=frames)
        worst = max(worst, float(np.abs(sample.input_heatmaps.data - oracle.data).max()))
    assert worst < 1e-12
    print(
        f"\n[acceptance 5] data pipeline: exact removal counts, O''=O, "
        f"masking oracle gap {worst:.1e} (<1e-12) on 100 samples"
    )


def test_acceptance_6_layout_goldens():
    s = 4

    # 1. all below threshold -> all empty
    lg = extract_layout(np.full((2, s, s), 0.01), threshold=0.5)
    assert np.all(lg.cells == EMPTY)

    # 2. single confident peak
    heat = np.zeros((2, s, s))
    heat[1, 2, 3] = 0.9
    expected = np.full((s, s), EMPTY)
    expected[2, 3] = 1
    np.testing.assert_array_equal(extract_layout(heat, 0.5).cells, expected)

    # 3. exact tie between classes -> lowest class index wins
    heat = np.zeros((3, s, s))
    heat[1, 0, 0] = 0.4
    heat[2, 0, 0] = 0.4
    expected = np.full((s, s), EMPTY)
    expected[0, 0] = 1
    np.testing.assert_array_equal(extract_layout(heat, 0.1).cells, expected)

    # 4. inclusive threshold boundary
    heat = np.zeros((1, s, s))
    heat[0, 1, 1] = 0.25
    expected = np.full((s, s), EMPTY)
    expected[1, 1] = 0
    np.testing.assert_array_equal(extract_layout(heat, 0.25).cells, expected)

    # 5. two classes claiming different cells
    heat = np.zeros((2, s, s))
    heat[0, 0, 0] = 0.6
    heat[1, 3, 3] = 0.7
    expected = np.full((s, s), EMPTY)
    expected[0, 0] = 0
    expected[3, 3] = 1
    np.testing.assert_array_equal(extract_layout(heat, 0.5).cells, expected)

    # placement fixtures: peaks in descending order, extras flagged
    heat = np.zeros((1, s, s))
    heat[0, 1, 1] = 0.6
    heat[0, 2, 2] = 0.4
    lg = extract_layout(heat, 0.1)
    placements = place_blind_nodes(heat, [(0, 3)], lg, (0.0, 0.0, 4.0, 4.0))
    assert [(p.cell, p.low_support) for p in placements] == [
        ((1, 1), False),
        ((2, 2), False),
        ((1, 1), True),
    ]
    assert placements[0].xy == (1.5, 1.5)

    # argmax invariance under uniform positive rescaling
    rng = np.random.default_rng(1)
    for _ in range(100):
        heat = rng.random((3, 6, 6))
        scale = rng.uniform(0.05, 20.0)
        t = 0.4
        np.testing.assert_array_equal(
            extract_layout(heat, t).cells, extract_layout(heat * scale, t * scale).cells
        )
    print("\n[acceptance 6] layout goldens exact; argmax rescaling-invariant on 100 heatmaps")


def test_acceptance_7_ontology_math():
    aff = class_affinity(default_ontology())
    row_gap = float(np.abs(aff.sum(axis=1) - 1.0).max())
    assert row_gap < 1e-9

    omega = np.asarray(default_ontology().biadjacency)
    k = omega.T @ omega
    assert np.array_equal(k, k.T)  # exact symmetry

    # toy ordering: chair shares more rooms with table than with plant
    toy = Ontology(
        ("kitchen", "dining_room", "living_room"),
        ("chair", "table", "plant"),
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
    )
    p = class_affinity(toy)
    chair, table, plant = 0, 1, 2
    assert p[chair, table] > p[chair, plant]
    print(
        f"\n[acceptance 7] ontology: row-sum gap {row_gap:.1e} (<1e-9), "
        f"K symmetric, P[chair,table]={p[chair, table]:.3f} > "
        f"P[chair,plant]={p[chair, plant]:.3f}"
    )


def test_acceptance_9_four_moments():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(4, 60)))
        m = four_moments(x)
        n = x.size
        mean = x.sum() / n
        c = x - mean
        m2 = (c**2).sum() / n
        variance = (c**2).sum() / (n - 1)
        g1 = (c**3).sum() / n / m2**1.5
        skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        g2 = (c**4).sum() / n / m2**2 - 3.0
        kurt = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
        worst = max(
            worst,
            abs(m.mean - mean),
            abs(m.variance - variance),
            abs(m.skewness - skew),
            abs(m.kurtosis - kurt),
        )
    assert worst < 1e-10

    gauss = four_moments(np.random.default_rng(3).normal(size=100_000))
    assert abs(gauss.kurtosis) < 0.1
    print(
        f"\n[acceptance 9] four moments: oracle gap {worst:.1e} (<1e-10), "
        f"Gaussian excess kurtosis {gauss.kurtosis:+.4f} (|.|<0.1)"
    )


@pytest.mark.slow
def test_acceptance_8_comparative_experiment():
    """Reduced-scale comparison of the plain and ontology-augmented variants.

    Reported, non-gating: the direction of the mean Wasserstein difference is
    printed, not asserted, because a desk-scale synthetic run need not
    reproduce full-scale orderings.
    """
    start = time.time()
    catalog = default_catalog()
    grid_size = 16
    _, splits = synthetic_dataset(99, 500, 3)
    train_s, val_s, test_s = (
        [build_sample(g, ids, grid_size) for g, ids in split] for split in splits
    )

    tc = TrainConfig(epochs=500, batch_size=12, lr=1e-3, lr_decay=0.0, seed=5)
    reports = {}
    for variant in (BASE, BASE_ONT):
        cfg = nn.ModelConfig(
            variant=variant, n_classes=catalog.n, grid_size=grid_size, hidden=64
        )
        affinity = class_affinity(default_ontology()) if variant == BASE_ONT else None
        model = new_model(cfg, catalog.hash(), 5, affinity)
        model, history = train(model, train_s, val_s, tc)
        reports[variant] = evaluate_model(model, test_s)
        print(f"\n[acceptance 8] {variant}: final train MSE {history[-1]['train']:.4e}")
        for name in ("wasserstein", "energy", "frobenius"):
            mo = getattr(reports[variant], name)
            print(
                f"  {name}: n={mo.n} mean={mo.mean:.6f} var={mo.variance:.3e} "
                f"skew={mo.skewness:.3f} kurt={mo.kurtosis:.3f}"
            )

    w_base = reports[BASE].wasserstein.mean
    w_ont = reports[BASE_ONT].wasserstein.mean
    for report in reports.values():
        for name in ("wasserstein", "energy", "frobenius"):
            mo = getattr(report, name)
            assert mo.n > 0 and math.isfinite(mo.mean)
    print(
        f"[acceptance 8] mean wasserstein base={w_base:.6f} ont={w_ont:.6f} "
        f"-> ontology variant {'<=' if w_ont <= w_base else '>'} plain "
        f"(direction {'matches' if w_ont <= w_base else 'does not match'} "
        f"the full-scale ordering); {time.time() - start:.0f}s"
    )
