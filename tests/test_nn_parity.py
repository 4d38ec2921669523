"""Parity of the room-row network with the dense network it replaced.

`dense_forward`, `dense_backward` and `dense_adam_step` below are the
dense implementations kept verbatim as the reference. They propagate
every node's features, return every node's output, form the
input-feature gradient, give every layer a bias and allocate fresh arrays
in Adam. The reference runs with zero hidden biases, which is what
`init_params` used to create and what the room-row network no longer has.
`loop_normalized_adjacency` is the adjacency builder that appended edges
in a Python loop and scaled with sparse diagonal products, also verbatim.
`dense_encode_inputs` is the encoder that stored the room rows' features
as a dense array, and `loop_postprocess` the post-processing that gated
and renormalized one (room, class) plane at a time in a Python loop, both
verbatim apart from their names and, in the encoder, the branch for the
`rooms_only` setting that `ModelConfig` no longer has. `one_graph_predict`
is `predict` as it was before `predict_many`: one graph's own eval-mode
forward (the former `raw_outputs`), then `postprocess`. `dense_train` is `train` as it was
before it stepped over the live rows of w0 only: every step runs forward,
backward and Adam over the full w0; it too is verbatim apart from its name.
`alloc_mse_loss` is `mse_loss` as it was before it wrote the gradient into
its difference array, verbatim apart from its name.
"""
import copy
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from scenecomp import nn
from scenecomp.catalog import default_catalog
from scenecomp.dataset import default_templates, generate_synthetic_scene, make_sample
from scenecomp.dataset import BsgSample, splitmix64
from scenecomp.errors import (
    ConfigMismatchError,
    EmptyDatasetError,
    NonFiniteError,
    ShapeMismatchError,
)
from scenecomp.graphs import BELIEF, BUILDING, SceneGraph, SceneNode, augment, build_graph
from scenecomp.model import (
    BASE,
    BASE_ONT,
    CompositionModel,
    EncodedSample,
    TrainConfig,
    _batch,
    encode_inputs,
    evaluate_model,
    new_model,
    postprocess,
    predict,
    predict_many,
    train,
    validation_loss,
)
from scenecomp.nn import BN_EPS, AdamState, ModelConfig
from scenecomp.ontology import class_affinity, default_ontology
from scenecomp.raster import HeatmapSet, rasterize

from conftest import simple_graph
from test_metrics import loop_evaluate_many

# --- reference: the dense network, verbatim --------------------------------


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"non-finite values after {name}")


def dense_forward(
    a_hat,
    x: np.ndarray,
    params: dict,
    stats: dict,
    config: ModelConfig,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the layer stack; returns (output, cache) where cache feeds backward.

    In train mode batch norm uses batch statistics (updating the running
    stats in place) and dropout is applied when a dropout_rng is given.
    """
    if x.shape[1] != config.input_width:
        raise ShapeMismatchError(
            f"feature width {x.shape[1]} != expected {config.input_width}"
        )
    h = x
    cache = {"x": x, "a_hat": a_hat, "layers": []}
    for l in range(config.n_layers):
        m = a_hat @ h
        z = m @ params[f"w{l}"] + params[f"b{l}"]
        layer = {"m": m}
        last = l == config.n_layers - 1
        if last or config.linear_only:
            h = z
        else:
            if train:
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                mom = config.bn_momentum
                stats[f"mean{l}"] *= 1 - mom
                stats[f"mean{l}"] += mom * mean
                stats[f"var{l}"] *= 1 - mom
                stats[f"var{l}"] += mom * var
            else:
                mean = stats[f"mean{l}"]
                var = stats[f"var{l}"]
            invstd = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mean) * invstd
            bn = params[f"gamma{l}"] * xhat + params[f"beta{l}"]
            relu_mask = bn > 0
            h = bn * relu_mask
            layer.update(xhat=xhat, invstd=invstd, relu_mask=relu_mask, train_bn=train)
            if train and config.dropout > 0 and dropout_rng is not None:
                keep = dropout_rng.random(h.shape) >= config.dropout
                h = h * keep / (1.0 - config.dropout)
                layer["dropout_keep"] = keep
        cache["layers"].append(layer)
        _check_finite(f"layer {l}", h)
    return h, cache


def dense_backward(d_out: np.ndarray, params: dict, cache: dict, config: ModelConfig):
    """Gradients of a scalar loss w.r.t. every trainable parameter.

    d_out is the loss gradient at the network output; returns (grads, d_x).
    """
    a_hat = cache["a_hat"]
    grads = {}
    d_h = d_out
    for l in reversed(range(config.n_layers)):
        layer = cache["layers"][l]
        last = l == config.n_layers - 1
        if last or config.linear_only:
            d_z = d_h
        else:
            if "dropout_keep" in layer:
                d_h = d_h * layer["dropout_keep"] / (1.0 - config.dropout)
            d_bn = d_h * layer["relu_mask"]
            xhat = layer["xhat"]
            grads[f"gamma{l}"] = (d_bn * xhat).sum(axis=0)
            grads[f"beta{l}"] = d_bn.sum(axis=0)
            d_xhat = d_bn * params[f"gamma{l}"]
            if layer["train_bn"]:
                n_rows = xhat.shape[0]
                d_z = (
                    layer["invstd"]
                    / n_rows
                    * (
                        n_rows * d_xhat
                        - d_xhat.sum(axis=0)
                        - xhat * (d_xhat * xhat).sum(axis=0)
                    )
                )
            else:
                d_z = d_xhat * layer["invstd"]
        m = layer["m"]
        grads[f"w{l}"] = m.T @ d_z
        grads[f"b{l}"] = d_z.sum(axis=0)
        d_m = d_z @ params[f"w{l}"].T
        d_h = a_hat.T @ d_m  # a_hat is symmetric
        _check_finite(f"backward layer {l}", d_h)
    return grads, d_h


def dense_adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float = 1e-5,
    decay: float = 1e-8,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update; effective lr decays as lr / (1 + decay * t)."""
    state.t += 1
    t = state.t
    lr_t = lr / (1.0 + decay * t)
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = state.m[name] / (1 - beta1 ** t)
        v_hat = state.v[name] / (1 - beta2 ** t)
        params[name] -= lr_t * m_hat / (np.sqrt(v_hat) + eps)


def alloc_mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"shape {pred.shape} != {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def loop_normalized_adjacency(g: SceneGraph, node_ids: list[int] | None = None) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency with self-loops.

    node_ids fixes the row/column order; defaults to all nodes in id order.
    """
    if node_ids is None:
        node_ids = sorted(n.id for n in g.nodes)
    index = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    rows, cols = list(range(n)), list(range(n))
    for parent, child in g.edges:
        if parent in index and child in index:
            rows += [index[parent], index[child]]
            cols += [index[child], index[parent]]
    vals = np.ones(len(rows))
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    a.data = np.minimum(a.data, 1.0)  # collapse duplicate edges
    deg = np.asarray(a.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(d_inv_sqrt)
    return (d @ a @ d).tocsr()


def dense_encode_inputs(sample: BsgSample, model: CompositionModel) -> EncodedSample:
    """Room-row features and normalized adjacency for one belief-graph sample.

    Row ri of x holds room ri's flattened heatmaps, its counts and, for the
    ontology variant, its affinity-mixed heatmaps; every other node's
    features are zero and are not stored.
    """
    cfg = model.config
    if sample.input_heatmaps.grid_size != cfg.grid_size:
        raise ConfigMismatchError(
            f"sample grid size {sample.input_heatmaps.grid_size} != model {cfg.grid_size}"
        )
    if sample.graph.catalog.n != cfg.n_classes:
        raise ConfigMismatchError(
            f"sample catalog size {sample.graph.catalog.n} != model {cfg.n_classes}"
        )
    g = sample.graph
    node_ids = sorted(n.id for n in g.nodes)
    a_hat = nn.normalized_adjacency(g)
    index = {nid: i for i, nid in enumerate(node_ids)}
    heat = sample.input_heatmaps
    n_rooms, block = len(heat.room_ids), cfg.n_classes * cfg.grid_size ** 2
    x = np.empty((n_rooms, cfg.input_width))
    x[:, :block] = heat.data.reshape(n_rooms, block)
    x[:, block : block + cfg.n_classes] = sample.counts.data
    if cfg.variant == BASE_ONT:
        for ri in range(n_rooms):
            mixed = np.einsum("ij,jxy->ixy", model.stats["affinity"], heat.data[ri])
            x[ri, block + cfg.n_classes :] = mixed.ravel()
    room_rows = np.array([index[rid] for rid in heat.room_ids], dtype=np.intp)
    target = sample.target_heatmaps.data.reshape(len(heat.room_ids), -1)
    return EncodedSample(a_hat, x, room_rows, target)


def loop_postprocess(
    raw_rooms: np.ndarray, sample: BsgSample, config: nn.ModelConfig
) -> HeatmapSet:
    """Clamp, gate by counts, and renormalize into a valid heatmap set.

    Classes with zero count in a room get an exactly-zero grid; present
    classes are renormalized to sum 1 (uniform fallback when the clamped
    output carries no mass).
    """
    n_rooms = raw_rooms.shape[0]
    s = config.grid_size
    grids = raw_rooms.reshape(n_rooms, config.n_classes, s, s).copy()
    np.clip(grids, 0.0, None, out=grids)
    counts = sample.counts.data
    for ri in range(n_rooms):
        for ci in range(config.n_classes):
            if counts[ri, ci] <= 0:
                grids[ri, ci] = 0.0
                continue
            total = grids[ri, ci].sum()
            if total > 0:
                grids[ri, ci] /= total
            else:
                grids[ri, ci] = 1.0 / (s * s)
    return HeatmapSet(
        grids,
        sample.input_heatmaps.room_ids,
        s,
        sample.input_heatmaps.room_frames,
    )


def dense_train(
    model: CompositionModel,
    train_set: list[BsgSample],
    val_set: list[BsgSample] | None,
    cfg: TrainConfig,
):
    """Mini-batch Adam on raw-output MSE over room rows.

    Batches are whole graphs (the final partial batch is used). The model
    with the best validation loss is retained when a validation set is
    given. Returns (model, history) with per-epoch train/val losses.
    """
    if not train_set:
        raise EmptyDatasetError("empty training set")
    enc_train = [encode_inputs(s, model) for s in train_set]
    enc_val = [encode_inputs(s, model) for s in (val_set or [])]

    adam = nn.AdamState()
    shuffle_rng = np.random.default_rng(splitmix64(cfg.seed, 1))
    dropout_rng = np.random.default_rng(splitmix64(cfg.seed, 2))
    history = []
    best_val = float("inf")
    best = None
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(enc_train))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [enc_train[i] for i in order[start : start + cfg.batch_size]]
            a, x, rows = _batch(batch)
            out, cache = nn.forward(
                a, x, model.params, model.stats, model.config,
                train=True, dropout_rng=dropout_rng, rows=rows,
            )
            loss, d_out = nn.mse_loss(out, np.vstack([e.target for e in batch]))
            grads = nn.backward(d_out, model.params, cache, model.config)
            nn.adam_step(model.params, grads, adam, cfg.lr, cfg.lr_decay)
            epoch_losses.append(loss)
        val = validation_loss(model, enc_val) if enc_val else None
        history.append({"epoch": epoch, "train": float(np.mean(epoch_losses)), "val": val})
        if enc_val and val < best_val:
            best_val = val
            best = (copy.deepcopy(model.params), copy.deepcopy(model.stats))
    if best is not None:
        model.params, model.stats = best
    return model, history


# --- parity ----------------------------------------------------------------

GRID = 8


def one_graph_predict(model: CompositionModel, sample: BsgSample) -> HeatmapSet:
    enc = encode_inputs(sample, model)
    out, _ = nn.forward(
        enc.a_hat, enc.x, model.params, model.stats, model.config,
        rows=enc.room_rows,
    )
    return postprocess(out, sample, model.config)


def _rel(new, ref) -> float:
    """Largest absolute difference relative to the reference's largest entry."""
    scale = np.abs(ref).max()
    return float(np.abs(new - ref).max() / scale) if scale > 0 else float(np.abs(new).max())


def _perturbed_model(variant, hidden=16, **config):
    """An S=8 model with non-trivial batch-norm parameters, running stats
    and output bias."""
    catalog = default_catalog()
    config = ModelConfig(variant=variant, n_classes=catalog.n, grid_size=GRID, hidden=hidden, **config)
    affinity = class_affinity(default_ontology()) if variant == BASE_ONT else None
    model = new_model(config, catalog.hash(), seed=3, affinity=affinity)
    rng = np.random.default_rng(4)
    for name, p in model.params.items():
        if not name.startswith("w"):
            p[:] = rng.normal(loc=1.0 if name.startswith("gamma") else 0.0, scale=0.1, size=p.shape)
    for name, s in model.stats.items():
        if name != "affinity":
            s[:] = rng.uniform(0.5, 1.5, size=s.shape) if name.startswith("var") else rng.normal(size=s.shape)
    return model


def _problem(variant, dropout=0.0, linear_only=False):
    """A batch of three encoded S=8 scenes and a model with non-trivial
    batch-norm parameters, running stats and output bias."""
    catalog = default_catalog()
    model = _perturbed_model(variant, dropout=dropout, linear_only=linear_only)
    samples = []
    for seed in range(3):
        g = generate_synthetic_scene(default_templates(), 3, seed, catalog)
        samples.append(make_sample(augment(g, 0.25, seed), 0.25, GRID, seed))
    encoded = [encode_inputs(s, model) for s in samples]
    a, x_rooms, rows = _batch(encoded)
    target = np.vstack([e.target for e in encoded])
    x_all = np.zeros((a.shape[0], x_rooms.shape[1]))
    x_all[rows] = x_rooms.toarray()
    return model, a, x_all, x_rooms, rows, target


def _dense_params(model):
    """The model's parameters plus the zero hidden biases the dense network has."""
    params = {k: v.copy() for k, v in model.params.items()}
    for l, (_, d_out) in enumerate(model.config.layer_widths()):
        params.setdefault(f"b{l}", np.zeros(d_out))
    return params


def _copy(stats):
    return {k: v.copy() for k, v in stats.items()}


@pytest.mark.parametrize("variant", [BASE, BASE_ONT])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_room_rows_match_dense(variant, train, dropout):
    model, a, x_all, x_rooms, rows, target = _problem(variant, dropout)
    config, params = model.config, model.params
    dense_params = _dense_params(model)

    stats_ref = _copy(model.stats)
    out_ref, cache_ref = dense_forward(a, x_all, dense_params, stats_ref, config, train=train,
                                       dropout_rng=np.random.default_rng(7))
    stats_new = _copy(model.stats)
    out, cache = nn.forward(a, x_rooms, params, stats_new, config, train=train,
                            dropout_rng=np.random.default_rng(7), rows=rows)
    assert out.shape == (len(rows), config.output_width)
    assert _rel(out, out_ref[rows]) < 1e-12
    for k in stats_ref:
        assert _rel(stats_new[k], stats_ref[k]) < 1e-12

    # the dense loss gradient is zero off the room rows
    _, d_rows = nn.mse_loss(out_ref[rows], target)
    d_all = np.zeros_like(out_ref)
    d_all[rows] = d_rows
    grads_ref, _ = dense_backward(d_all, dense_params, cache_ref, config)
    grads = nn.backward(d_rows, params, cache, config)
    assert set(grads) == set(params)
    for k in grads:
        assert _rel(grads[k], grads_ref[k]) < 1e-10, k
    hidden_biases = set(grads_ref) - set(grads)
    assert hidden_biases == {f"b{l}" for l in range(config.n_layers - 1)}
    if train:
        # batch norm cancels a bias placed before it: its gradient is zero
        for k in hidden_biases:
            assert np.abs(grads_ref[k]).max() < 1e-12, k


@pytest.mark.parametrize("variant", [BASE, BASE_ONT])
def test_rows_none_means_every_node(variant):
    model, a, x_all, x_rooms, rows, target = _problem(variant, dropout=0.2)
    config, params = model.config, model.params
    out_all, cache_all = nn.forward(a, x_all, params, _copy(model.stats), config, train=True,
                                    dropout_rng=np.random.default_rng(8))
    out, cache = nn.forward(a, x_rooms, params, _copy(model.stats), config, train=True,
                            dropout_rng=np.random.default_rng(8), rows=rows)
    assert out_all.shape == (a.shape[0], config.output_width)
    assert _rel(out, out_all[rows]) < 1e-12
    _, d_rows = nn.mse_loss(out, target)
    d_all = np.zeros_like(out_all)
    d_all[rows] = d_rows
    grads_all = nn.backward(d_all, params, cache_all, config)
    grads = nn.backward(d_rows, params, cache, config)
    for k in grads:
        assert _rel(grads[k], grads_all[k]) < 1e-10, k


@pytest.mark.parametrize("variant", [BASE, BASE_ONT])
@pytest.mark.parametrize("train", [True, False])
def test_csr_features_match_dense_features(variant, train):
    # the same nn calls on the CSR room rows and on their dense copy
    model, a, _, x_rooms, rows, target = _problem(variant, dropout=0.2)
    assert isinstance(x_rooms, sp.csr_matrix)
    config, params = model.config, model.params
    runs = []
    for x in (x_rooms, x_rooms.toarray()):
        stats = _copy(model.stats)
        out, cache = nn.forward(a, x, params, stats, config, train=train,
                                dropout_rng=np.random.default_rng(9), rows=rows)
        _, d_out = nn.mse_loss(out, target)
        runs.append((out, stats, nn.backward(d_out, params, cache, config)))
    (out, stats, grads), (out_ref, stats_ref, grads_ref) = runs
    assert _rel(out, out_ref) < 1e-12
    for k in stats_ref:
        assert _rel(stats[k], stats_ref[k]) < 1e-12, k
    assert set(grads) == set(grads_ref)
    for k in grads:
        assert type(grads[k]) is np.ndarray and grads[k].flags.c_contiguous, k
        assert _rel(grads[k], grads_ref[k]) < 1e-10, k


def test_linear_only_matches_dense():
    model, a, x_all, x_rooms, rows, target = _problem(BASE, linear_only=True)
    config, params = model.config, model.params
    assert {f"b{l}" for l in range(config.n_layers)} <= set(params)
    out_ref, cache_ref = dense_forward(a, x_all, params, {}, config)
    out, cache = nn.forward(a, x_rooms, params, {}, config, rows=rows)
    assert _rel(out, out_ref[rows]) < 1e-12
    _, d_rows = nn.mse_loss(out_ref[rows], target)
    d_all = np.zeros_like(out_ref)
    d_all[rows] = d_rows
    grads_ref, _ = dense_backward(d_all, params, cache_ref, config)
    grads = nn.backward(d_rows, params, cache, config)
    assert set(grads) == set(grads_ref)
    for k in grads:
        assert _rel(grads[k], grads_ref[k]) < 1e-10, k


def test_adam_bitwise_equals_dense():
    rng = np.random.default_rng(9)
    # "w1" spans more than two Adam blocks and ends in a partial one
    shapes = {"w0": (40, 7), "b0": (7,), "gamma1": (3,), "w1": (7, nn.ADAM_BLOCK // 3)}
    assert shapes["w1"][0] * shapes["w1"][1] > 2 * nn.ADAM_BLOCK
    assert shapes["w1"][0] * shapes["w1"][1] % nn.ADAM_BLOCK != 0
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    params_ref = {k: v.copy() for k, v in params.items()}
    state, state_ref = AdamState(), AdamState()
    for _ in range(5):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        nn.adam_step(params, grads, state, lr=1e-3, decay=1e-2)
        dense_adam_step(params_ref, grads, state_ref, lr=1e-3, decay=1e-2)
    assert state.t == state_ref.t == 5
    for k in shapes:
        assert np.array_equal(params[k], params_ref[k])
        assert np.array_equal(state.m[k], state_ref.m[k])
        assert np.array_equal(state.v[k], state_ref.v[k])


@pytest.mark.parametrize("shape", [(1,), (3, 5), (7, 2), (36, 8960), (48, 35840)])
def test_mse_loss_bitwise_equals_alloc_oracle(shape):
    # (36, 8960) and (48, 35840) are a training batch's output at S=16 and S=32
    rng = np.random.default_rng(shape[0])
    pred = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
    target = rng.normal(size=shape)
    # every fifth difference lies down to the subnormal range, where
    # 2.0 * diff / n and 2.0 * (diff / n) round differently
    pred.flat[1::5] *= 1e-300
    target.flat[1::5] = 0.0
    pred.flat[0], target.flat[-1] = -0.0, 0.0
    pred_before, target_before = pred.tobytes(), target.tobytes()
    loss, grad = nn.mse_loss(pred, target)
    loss_ref, grad_ref = alloc_mse_loss(pred, target)
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    assert grad.shape == grad_ref.shape and grad.tobytes() == grad_ref.tobytes()
    # the gradient is a new array: neither input is written
    assert pred.tobytes() == pred_before and target.tobytes() == target_before
    assert not np.shares_memory(grad, pred) and not np.shares_memory(grad, target)


@pytest.mark.parametrize("which", ["param", "grad"])
def test_adam_refuses_arrays_it_cannot_flatten_in_place(which):
    params = {"w0": np.ones((4, 3))}
    grads = {"w0": np.ones((4, 3))}
    {"param": params, "grad": grads}[which]["w0"] = np.ones((4, 3), order="F")
    with pytest.raises(ShapeMismatchError, match=f"{which} w0 is not"):
        nn.adam_step(params, grads, AdamState(), lr=1e-5, decay=1e-8)


def _scenes(n=6, n_rooms=3):
    catalog = default_catalog()
    return [
        augment(generate_synthetic_scene(default_templates(), n_rooms, seed, catalog), 0.25, seed)
        for seed in range(n)
    ]


def _assert_same_csr(a, ref):
    assert type(a) is type(ref) and a.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(ref, part)), part


def test_normalized_adjacency_bitwise_equals_loop():
    for g in _scenes():
        _assert_same_csr(nn.normalized_adjacency(g), loop_normalized_adjacency(g))


def test_normalized_adjacency_counts_a_duplicate_edge_once():
    g = _scenes(1)[0]
    dup = dataclasses.replace(g, edges=g.edges + (g.edges[0], g.edges[-1]))
    a = nn.normalized_adjacency(dup)
    _assert_same_csr(a, loop_normalized_adjacency(dup))
    _assert_same_csr(a, nn.normalized_adjacency(g))


def test_batch_adjacency_equals_block_diag():
    catalog = default_catalog()
    config = ModelConfig(n_classes=catalog.n, grid_size=GRID, hidden=8)
    model = new_model(config, catalog.hash())
    encoded = [encode_inputs(make_sample(g, 0.25, GRID, k), model) for k, g in enumerate(_scenes())]
    a, x, rows = _batch(encoded)
    _assert_same_csr(a, sp.block_diag([e.a_hat for e in encoded], format="csr"))
    offsets = np.cumsum([0] + [e.a_hat.shape[0] for e in encoded[:-1]])
    assert np.array_equal(rows, np.concatenate([e.room_rows + o for e, o in zip(encoded, offsets)]))
    _assert_same_csr(x, sp.vstack([e.x for e in encoded], format="csr"))


def _encoder_samples():
    """Scenes, a sample with a room whose every heatmap plane is zero, and a
    room-less sample (a building-only belief graph, as `predict` builds it)."""
    catalog = default_catalog()
    samples = [make_sample(g, 0.25, GRID, k) for k, g in enumerate(_scenes(4))]
    # one of the two rooms' single object is masked, the other's is not
    empty_room = make_sample(simple_graph(catalog, (1, 1)), 0.5, GRID, seed=0)
    planes = empty_room.input_heatmaps.data.any(axis=(2, 3)).any(axis=1)
    assert list(planes) in ([True, False], [False, True])
    g = build_graph([SceneNode(0, BUILDING)], [], BELIEF, catalog)
    heat, counts = rasterize(g, GRID)
    return samples + [empty_room, BsgSample(g, heat, counts, heat, ())]


@pytest.mark.parametrize("variant", [BASE, BASE_ONT])
def test_encode_equals_dense_encoder(variant):
    catalog = default_catalog()
    config = ModelConfig(variant=variant, n_classes=catalog.n, grid_size=GRID, hidden=8)
    affinity = class_affinity(default_ontology()) if variant == BASE_ONT else None
    model = new_model(config, catalog.hash(), affinity=affinity)
    *samples, roomless = _encoder_samples()
    for s in samples:
        enc, ref = encode_inputs(s, model), dense_encode_inputs(s, model)
        assert isinstance(enc.x, sp.csr_matrix) and enc.x.shape == ref.x.shape
        assert np.array_equal(enc.x.toarray(), ref.x)
        assert enc.x.has_sorted_indices and np.all(enc.x.data != 0)
        _assert_same_csr(enc.a_hat, ref.a_hat)
        assert np.array_equal(enc.room_rows, ref.room_rows)
        assert np.array_equal(enc.target, ref.target)
        node_ids = sorted(n.id for n in s.graph.nodes)
        assert [node_ids[i] for i in enc.room_rows] == list(s.input_heatmaps.room_ids)
    # the dense encoder failed on a room-less sample, reshaping its empty
    # target to (0, -1); its features are an empty matrix
    with pytest.raises(ValueError, match="cannot reshape"):
        dense_encode_inputs(roomless, model)
    enc = encode_inputs(roomless, model)
    assert enc.x.shape == (0, config.input_width) and enc.x.nnz == 0
    assert enc.target.shape == (0, config.output_width) and enc.room_rows.size == 0
    assert predict(model, roomless).data.shape == (0, catalog.n, GRID, GRID)


@pytest.mark.parametrize("grid", [4, GRID, 16])
def test_postprocess_bitwise_equals_loop(grid):
    catalog = default_catalog()
    config = ModelConfig(n_classes=catalog.n, grid_size=grid, hidden=8)
    rng = np.random.default_rng(grid)
    for k, g in enumerate(_scenes(4)):
        sample = make_sample(g, 0.25, grid, k)
        counts = sample.counts.data
        # raw outputs of both signs, so clamping zeroes some cells
        raw = rng.normal(size=(counts.shape[0], config.output_width))
        # a present class whose clamped plane is all zero takes the uniform value
        ri, ci = np.argwhere(counts > 0)[k]
        raw.reshape(counts.shape[0], catalog.n, -1)[ri, ci] = -rng.uniform(size=grid * grid)
        assert (counts == 0).any()
        before = raw.copy()
        got, ref = postprocess(raw, sample, config), loop_postprocess(raw, sample, config)
        assert got.data.tobytes() == ref.data.tobytes()
        assert (got.room_ids, got.grid_size, got.room_frames) == (ref.room_ids, ref.grid_size, ref.room_frames)
        assert np.all(got.data[ri, ci] == 1.0 / (grid * grid))
        assert np.array_equal(raw, before)


PREDICT_MODELS = {
    "base": dict(variant=BASE),
    "base_ont": dict(variant=BASE_ONT),
    "base-hidden-256": dict(variant=BASE, hidden=256),
}


def _same_heatmaps(got: HeatmapSet, ref: HeatmapSet) -> bool:
    return got.data.tobytes() == ref.data.tobytes() and (
        got.data.shape, got.room_ids, got.grid_size, got.room_frames
    ) == (ref.data.shape, ref.room_ids, ref.grid_size, ref.room_frames)


@pytest.mark.parametrize("case", PREDICT_MODELS)
def test_predict_many_bitwise_equals_predict(case):
    model = _perturbed_model(**PREDICT_MODELS[case])
    *samples, roomless = _encoder_samples()
    batch = samples[:2] + [roomless] + samples[2:]  # a room-less graph mid-batch
    got = predict_many(model, batch)
    assert len(got) == len(batch)
    for h, s in zip(got, batch):
        ref = one_graph_predict(model, s)
        assert _same_heatmaps(h, ref)
        assert _same_heatmaps(predict(model, s), ref)
    assert got[2].data.shape == (0, model.config.n_classes, GRID, GRID)
    [one] = predict_many(model, batch[3:4])
    assert _same_heatmaps(one, got[3])
    assert predict_many(model, []) == []


@pytest.mark.parametrize("case", ["base", "base_ont"])
def test_evaluate_model_equals_loop_report(case):
    model = _perturbed_model(**PREDICT_MODELS[case])
    test_set = _encoder_samples()
    pairs = [(one_graph_predict(model, s), s.target_heatmaps) for s in test_set]
    provenance = {"checkpoint_hash": "0" * 16}
    report = evaluate_model(model, test_set, provenance)
    assert report == loop_evaluate_many(pairs, provenance)
    assert report.wasserstein.n > 0
    assert report.frobenius.n == sum(len(s.input_heatmaps.room_ids) for s in test_set)


def _split(seeds, grid):
    catalog = default_catalog()
    return [
        make_sample(
            augment(generate_synthetic_scene(default_templates(), 3, seed, catalog), 0.25, seed),
            0.25, grid, seed,
        )
        for seed in seeds
    ]


def _columns(model, samples) -> set:
    return {int(c) for s in samples for c in encode_inputs(s, model).x.indices}


# name -> (model config, training seeds, validation seeds, train config)
TRAIN_CASES = {
    # validation touches input rows that no training sample does
    "base_ont-s16-h64-dropout": (
        dict(variant=BASE_ONT, grid_size=16, hidden=64, dropout=0.2),
        range(6), range(100, 103), TrainConfig(epochs=3, batch_size=4, lr=1e-3, seed=1),
    ),
    "base-s32-h256": (
        dict(variant=BASE, grid_size=32, hidden=256),
        range(5), (), TrainConfig(epochs=2, batch_size=3, lr=1e-3, seed=2),
    ),
    # the validation loss is lowest after an earlier epoch than the last
    "best-epoch-earlier": (
        dict(variant=BASE, grid_size=GRID, hidden=16),
        range(6), range(100, 103), TrainConfig(epochs=4, batch_size=4, lr=1e-3, lr_decay=0.0, seed=2),
    ),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train_bitwise_equals_dense_train(case):
    config, train_seeds, val_seeds, tc = TRAIN_CASES[case]
    catalog = default_catalog()
    config = ModelConfig(n_classes=catalog.n, **config)
    affinity = class_affinity(default_ontology()) if config.variant == BASE_ONT else None
    train_set, val_set = _split(train_seeds, config.grid_size), _split(val_seeds, config.grid_size)
    runs = []
    for fit in (dense_train, train):
        model = new_model(config, catalog.hash(), seed=3, affinity=affinity)
        runs.append(fit(model, train_set, val_set, tc))
    (ref, ref_history), (got, history) = runs
    assert history == ref_history and len(history) == tc.epochs
    for part in ("params", "stats"):
        ref_arrays, got_arrays = getattr(ref, part), getattr(got, part)
        assert set(got_arrays) == set(ref_arrays)
        for k in ref_arrays:
            assert _same_bits(got_arrays[k], ref_arrays[k]), (part, k)
    if case == "base_ont-s16-h64-dropout":
        assert _columns(got, val_set) - _columns(got, train_set)
    if case == "best-epoch-earlier":
        vals = [h["val"] for h in history]
        assert vals.index(min(vals)) < len(vals) - 1
