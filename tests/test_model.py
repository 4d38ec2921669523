import numpy as np
import pytest

from scenecomp import nn
from scenecomp.dataset import make_sample
from scenecomp.errors import ConfigMismatchError, EmptyDatasetError
from scenecomp.graphs import ROOM
from scenecomp.model import (
    BASE,
    BASE_ONT,
    TrainConfig,
    encode_inputs,
    evaluate_model,
    new_model,
    predict,
    train,
)
from scenecomp.ontology import ClassAffinity, class_affinity, default_ontology

from conftest import simple_graph, toy_samples


def _sample(catalog, grid_size=8):
    return make_sample(simple_graph(catalog, (4, 3)), 0.25, grid_size, seed=2)


def _model(catalog, variant=BASE, grid_size=8, hidden=16, seed=0, affinity=None):
    cfg = nn.ModelConfig(
        variant=variant, n_classes=catalog.n, grid_size=grid_size, hidden=hidden, dropout=0.1
    )
    return new_model(cfg, catalog.hash(), seed, affinity)


def test_feature_widths(catalog):
    cfg = nn.ModelConfig(variant=BASE, n_classes=35, grid_size=32)
    assert cfg.input_width == 35 * 1024 + 35 == 35875
    cfg2 = nn.ModelConfig(variant=BASE_ONT, n_classes=35, grid_size=32)
    assert cfg2.input_width == 2 * 35 * 1024 + 35
    assert cfg.output_width == 35 * 1024


def test_encode_room_features(catalog):
    s = _sample(catalog)
    m = _model(catalog)
    enc = encode_inputs(s, m)
    # only the room rows are stored (all other rows are zero), and
    # room_rows places them in the adjacency
    n_rooms = len(s.graph.nodes_in_layer(ROOM))
    assert enc.x.shape == (n_rooms, m.config.input_width)
    node_ids = sorted(n.id for n in s.graph.nodes)
    assert [node_ids[i] for i in enc.room_rows] == list(s.input_heatmaps.room_ids)
    # room rows carry the flattened heatmaps and counts
    n, s2 = catalog.n, 8 * 8
    x = enc.x.toarray()
    for ri in range(n_rooms):
        row = x[ri]
        np.testing.assert_array_equal(row[: n * s2], s.input_heatmaps.data[ri].ravel())
        np.testing.assert_array_equal(row[n * s2 : n * s2 + n], s.counts.data[ri])


def test_encode_identity_affinity_duplicates_block(catalog):
    s = _sample(catalog)
    aff = ClassAffinity(np.eye(catalog.n))
    m = _model(catalog, variant=BASE_ONT, affinity=aff)
    enc = encode_inputs(s, m)
    n, s2 = catalog.n, 64
    row = enc.x.toarray()[0]
    np.testing.assert_allclose(row[n * s2 + n :], row[: n * s2], atol=1e-15)


def test_encode_config_mismatch(catalog):
    s = _sample(catalog, grid_size=8)
    m = _model(catalog, grid_size=16)
    with pytest.raises(ConfigMismatchError):
        encode_inputs(s, m)


def test_ont_variant_requires_affinity(catalog):
    with pytest.raises(ConfigMismatchError):
        _model(catalog, variant=BASE_ONT)


def test_ont_variant_keeps_its_affinity_in_its_stats(catalog):
    aff = class_affinity(default_ontology())
    m = _model(catalog, variant=BASE_ONT, affinity=aff)
    assert m.stats["affinity"].tobytes() == aff.matrix.tobytes()
    assert "affinity" not in _model(catalog, affinity=aff).stats
    with pytest.raises(ConfigMismatchError, match="class affinity of its classes"):
        _model(catalog, variant=BASE_ONT, affinity=ClassAffinity(np.eye(catalog.n - 1)))


def test_base_ont_identity_equivalence(catalog):
    # with P = I and the first-layer weights split in half across the two
    # heatmap blocks, the ontology variant reproduces the plain variant
    s = _sample(catalog)
    base = _model(catalog, seed=3)
    aff = ClassAffinity(np.eye(catalog.n))
    ont = _model(catalog, variant=BASE_ONT, seed=3, affinity=aff)
    n, s2 = catalog.n, 64
    block = n * s2
    w_base = base.params["w0"]
    w_ont = np.vstack(
        [w_base[:block] / 2, w_base[block : block + n], w_base[:block] / 2]
    )
    ont.params["w0"] = w_ont
    for name in base.params:
        if name != "w0":
            ont.params[name] = base.params[name].copy()
    # the batch-norm stats; the ontology variant keeps its affinity beside them
    ont.stats.update({k: v.copy() for k, v in base.stats.items()})
    np.testing.assert_allclose(
        predict(ont, s).data, predict(base, s).data, atol=1e-10
    )


def test_predict_satisfies_heatmap_invariants(catalog):
    s = _sample(catalog)
    m = _model(catalog)
    out = predict(m, s)
    out.validate(atol=1e-9)
    # count gating: absent classes are exactly zero
    absent = s.counts.data == 0
    sums = out.data.sum(axis=(2, 3))
    assert np.all(sums[absent] == 0.0)
    assert np.allclose(sums[~absent], 1.0, atol=1e-9)


def test_predict_reproducible(catalog):
    s = _sample(catalog)
    out1 = predict(_model(catalog, seed=7), s)
    out2 = predict(_model(catalog, seed=7), s)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_train_epochs_zero(small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=2, grid_size=8)
    m = _model(small_catalog, grid_size=8)
    before = {k: v.copy() for k, v in m.params.items()}
    m, history = train(m, samples, None, TrainConfig(epochs=0))
    assert history == []
    for k in before:
        np.testing.assert_array_equal(before[k], m.params[k])


def test_train_empty_dataset(small_catalog):
    m = _model(small_catalog, grid_size=8)
    with pytest.raises(EmptyDatasetError):
        train(m, [], None, TrainConfig(epochs=1))


def test_train_reduces_loss_and_is_deterministic(small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=4, grid_size=8)
    tc = TrainConfig(epochs=60, batch_size=4, lr=1e-3, lr_decay=0.0, seed=5)
    m1, h1 = train(_model(small_catalog, grid_size=8, seed=1), samples, None, tc)
    m2, h2 = train(_model(small_catalog, grid_size=8, seed=1), samples, None, tc)
    assert h1 == h2  # bitwise-identical loss history
    assert h1[-1]["train"] < h1[0]["train"]


def test_train_base_ont_with_dropout_is_bitwise_deterministic(catalog):
    # the benchmark's variant: ontology features, dropout on, a validation set
    samples = [_sample(catalog)] + [
        make_sample(simple_graph(catalog, (2, 3, 1)), 0.25, 8, seed=s) for s in (3, 4)
    ]
    cfg = nn.ModelConfig(variant=BASE_ONT, n_classes=catalog.n, grid_size=8, hidden=16, dropout=0.2)
    affinity = class_affinity(default_ontology())
    tc = TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=5)
    runs = [
        train(new_model(cfg, catalog.hash(), 1, affinity), samples[:2], samples[2:], tc)
        for _ in range(2)
    ]
    (m1, h1), (m2, h2) = runs
    assert h1 == h2
    for a, b in ((m1.params, m2.params), (m1.stats, m2.stats)):
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k]), k


def test_train_keeps_best_validation(small_catalog, toy_template):
    samples = toy_samples(small_catalog, toy_template, n=5, grid_size=8)
    tc = TrainConfig(epochs=30, batch_size=4, lr=1e-3, lr_decay=0.0, seed=6)
    m, history = train(
        _model(small_catalog, grid_size=8, seed=2), samples[:4], samples[4:], tc
    )
    vals = [h["val"] for h in history]
    from scenecomp.model import validation_loss

    final_val = validation_loss(m, [encode_inputs(samples[4], m)])
    assert final_val == pytest.approx(min(vals), abs=1e-12)


def test_evaluate_model_perfect_and_uniform(catalog):
    s = _sample(catalog)
    m = _model(catalog)

    # inject predictions equal to targets through the metrics path
    from scenecomp.metrics import evaluate_many

    report = evaluate_many([(s.target_heatmaps, s.target_heatmaps)])
    assert report.wasserstein.mean == 0.0
    assert report.energy.mean == 0.0
    assert report.frobenius.mean == 0.0

    # uniform baseline scores worse than perfect on a non-uniform target
    uniform = s.target_heatmaps.data.copy()
    present = uniform.sum(axis=(2, 3)) > 0
    uniform[present] = 1.0 / 64
    from scenecomp.raster import HeatmapSet

    uni = HeatmapSet(
        uniform,
        s.target_heatmaps.room_ids,
        s.target_heatmaps.grid_size,
        s.target_heatmaps.room_frames,
    )
    report_u = evaluate_many([(uni, s.target_heatmaps)])
    assert report_u.frobenius.mean > 0.0

    # end-to-end delegation with a real model produces the full schema
    report_m = evaluate_model(m, [s])
    d = report_m.to_dict()
    for key in ("wasserstein", "energy", "frobenius"):
        assert set(d[key]) == {"n", "mean", "variance", "skewness", "kurtosis"}
