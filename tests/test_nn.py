import json
import re
import time
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp

from scenecomp import nn
from scenecomp.errors import (
    ConfigMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    UnreadableInputError,
)
from scenecomp.graphs import (
    BUILDING,
    GROUND_TRUTH,
    ROOM,
    SceneNode,
    build_graph,
)
from scenecomp.model import TrainConfig

from conftest import simple_graph


def _config(**kw):
    base = dict(variant="base", n_classes=3, grid_size=4, hidden=8, dropout=0.0)
    base.update(kw)
    return nn.ModelConfig(**base)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: nn.ModelConfig(variant="foo"), "config key variant is 'foo', not 'base' or 'base_ont'"),
        (lambda: nn.ModelConfig(hidden=0), "config key hidden is 0, not an int > 0"),
        (lambda: nn.ModelConfig(n_layers=2.0), "config key n_layers is 2.0, not an int > 0"),
        (lambda: TrainConfig(lr=float("nan")), "config key lr is nan, not a finite number > 0"),
        (lambda: TrainConfig(lr_decay=float("inf")), "config key lr_decay is inf, not a finite number >= 0"),
        (lambda: TrainConfig(seed=-1), "config key seed is -1, not an int >= 0"),
    ],
    ids=["variant-foo", "hidden-0", "n-layers-a-float", "lr-nan", "lr-decay-inf", "seed-negative"],
)
def test_config_breaking_its_rule_is_refused(make, message):
    with pytest.raises(ConfigMismatchError, match=re.escape(message)):
        make()


def test_adjacency_single_node(catalog):
    g = build_graph([SceneNode(0, BUILDING)], [], GROUND_TRUTH, catalog)
    a = nn.normalized_adjacency(g).toarray()
    np.testing.assert_allclose(a, [[1.0]])


def test_adjacency_two_nodes(catalog):
    nodes = [SceneNode(0, BUILDING), SceneNode(1, ROOM, position=(0, 0, 0), dimensions=(4, 4, 3))]
    g = build_graph(nodes, [(0, 1)], GROUND_TRUTH, catalog)
    a = nn.normalized_adjacency(g).toarray()
    np.testing.assert_allclose(a, [[0.5, 0.5], [0.5, 0.5]])


def test_adjacency_symmetry_and_spectrum(catalog):
    g = simple_graph(catalog, (5, 3, 2))
    a = nn.normalized_adjacency(g).toarray()
    assert np.allclose(a, a.T)
    # every entry lies in (0, 1] where an edge or self-loop exists
    nz = a[a != 0]
    assert np.all(nz > 0) and np.all(nz <= 1 + 1e-12)
    assert np.all(np.diag(a) > 0)
    # symmetric normalization bounds the spectral radius by 1
    eigs = np.linalg.eigvalsh(a)
    assert eigs.max() <= 1 + 1e-10
    assert eigs.min() >= -1 - 1e-10


def test_forward_bias_only():
    cfg = _config()
    params, stats = nn.init_params(cfg, seed=0)
    for l in range(cfg.n_layers):
        params[f"w{l}"][:] = 0.0
    params[f"b{cfg.n_layers - 1}"][:] = 3.25
    x = np.zeros((4, cfg.input_width))
    out, _ = nn.forward(np.eye(4), x, params, stats, cfg)
    np.testing.assert_allclose(out, 3.25)


def test_eval_equals_train_without_dropout_and_fixed_stats():
    cfg = _config(dropout=0.0)
    params, stats = nn.init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, cfg.input_width))
    a = np.eye(5)
    out_train, _ = nn.forward(a, x, params, {k: v.copy() for k, v in stats.items()}, cfg, train=True)
    # freeze running stats at the train-batch statistics, then eval must agree
    stats2 = {k: v.copy() for k, v in stats.items()}
    h = x
    for l in range(cfg.n_layers - 1):
        z = a @ h @ params[f"w{l}"]
        stats2[f"mean{l}"] = z.mean(axis=0)
        stats2[f"var{l}"] = z.var(axis=0)
        xhat = (z - stats2[f"mean{l}"]) / np.sqrt(stats2[f"var{l}"] + nn.BN_EPS)
        h = np.maximum(params[f"gamma{l}"] * xhat + params[f"beta{l}"], 0)
    out_eval, _ = nn.forward(a, x, params, stats2, cfg)
    np.testing.assert_allclose(out_train, out_eval, atol=1e-12)


def test_forward_matches_dense_oracle():
    # hand-coded dense forward on a 3-node path graph
    cfg = _config(linear_only=True, n_layers=2, hidden=6)
    params, stats = nn.init_params(cfg, seed=3)
    adj = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    d = np.diag(1.0 / np.sqrt(adj.sum(axis=1)))
    a_hat = d @ adj @ d
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, cfg.input_width))
    out, _ = nn.forward(a_hat, x, params, stats, cfg)
    oracle = a_hat @ (a_hat @ x @ params["w0"] + params["b0"]) @ params["w1"] + params["b1"]
    np.testing.assert_allclose(out, oracle, atol=1e-12)


@pytest.mark.parametrize("extra", [-1, 1])
def test_forward_rejects_features_of_the_wrong_width(extra):
    cfg = _config()
    params, stats = nn.init_params(cfg, seed=0)
    width = cfg.input_width + extra
    for x in (np.ones((3, width)), sp.csr_matrix(np.ones((3, width)))):
        with pytest.raises(ShapeMismatchError, match=f"feature width {width} != expected {cfg.input_width}"):
            nn.forward(np.eye(3), x, params, stats, cfg)


def test_mse_loss():
    loss, grad = nn.mse_loss(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    assert loss == pytest.approx(2.0)
    assert nn.mse_loss(np.ones(7), np.ones(7))[0] == 0.0
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert nn.mse_loss(a, b)[0] == pytest.approx(((a - b) ** 2).sum() / 20, abs=1e-14)
    with pytest.raises(ShapeMismatchError):
        nn.mse_loss(np.ones(3), np.ones(4))


def test_backward_zero_at_minimum():
    cfg = _config(linear_only=True)
    params, stats = nn.init_params(cfg, seed=6)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, cfg.input_width))
    out, cache = nn.forward(np.eye(4), x, params, stats, cfg)
    loss, d_out = nn.mse_loss(out, out.copy())
    grads = nn.backward(d_out, params, cache, cfg)
    assert loss == 0.0
    for g in grads.values():
        np.testing.assert_allclose(g, 0.0)


def test_relu_blocks_gradient():
    cfg = _config(n_layers=2, hidden=4)
    params, stats = nn.init_params(cfg, seed=8)
    params["beta0"][:] = -100.0  # forces every ReLU input negative
    x = np.random.default_rng(9).normal(size=(3, cfg.input_width))
    out, cache = nn.forward(np.eye(3), x, params, stats, cfg, train=True)
    _, d_out = nn.mse_loss(out, out + 1.0)
    grads = nn.backward(d_out, params, cache, cfg)
    np.testing.assert_allclose(grads["w0"], 0.0)
    np.testing.assert_allclose(grads["gamma0"], 0.0)


def test_adam_zero_gradient():
    # an entry whose gradient has been zero at every step keeps m = v = +0.0
    # and moves by exactly zero, which is why `model.train` may leave the
    # rows of w0 that no training sample touches out of every step
    start = np.array([1.0, -2.0, -0.0, 5e-324])
    params = {"w": start.copy()}
    state = nn.AdamState()
    for _ in range(5):
        nn.adam_step(params, {"w": np.zeros(4)}, state, lr=0.1, decay=1e-8)
        assert params["w"].tobytes() == start.tobytes()
        for moment in (state.m["w"], state.v["w"]):
            assert np.all(moment == 0.0) and not np.any(np.signbit(moment))


def test_adam_once_touched_entry_keeps_moving():
    # after one non-zero gradient the moments decay but stay non-zero, so
    # later zero-gradient steps still move the entry: only rows that are
    # never touched may be left out of a step
    params = {"w": np.array([1.0])}
    state = nn.AdamState()
    nn.adam_step(params, {"w": np.array([0.5])}, state, lr=0.1, decay=1e-8)
    for _ in range(5):
        before = params["w"][0]
        nn.adam_step(params, {"w": np.zeros(1)}, state, lr=0.1, decay=1e-8)
        assert params["w"][0] < before
        assert state.m["w"][0] > 0.0 and state.v["w"][0] > 0.0


def test_adam_first_step_closed_form():
    params = {"w": np.array([0.0])}
    state = nn.AdamState()
    nn.adam_step(params, {"w": np.array([1.0])}, state, lr=1e-3, decay=0.0)
    # bias-corrected first step moves by ~lr against a unit gradient
    assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_decay_schedule():
    lr, decay = 1e-3, 0.5
    params = {"w": np.array([0.0])}
    state = nn.AdamState()
    nn.adam_step(params, {"w": np.array([1.0])}, state, lr=lr, decay=decay)
    first = -params["w"][0]
    assert first == pytest.approx(lr / 1.5, rel=1e-6)
    params0 = {"w": np.array([0.0])}
    state0 = nn.AdamState()
    nn.adam_step(params0, {"w": np.array([1.0])}, state0, lr=lr, decay=0.0)
    assert -params0["w"][0] == pytest.approx(lr, rel=1e-6)


def test_batchnorm_standardizes():
    cfg = _config(n_layers=2, hidden=4)
    params, stats = nn.init_params(cfg, seed=10)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(64, cfg.input_width))
    m = np.eye(64) @ x @ params["w0"]
    invstd = 1.0 / np.sqrt(m.var(axis=0) + nn.BN_EPS)
    xhat = (m - m.mean(axis=0)) * invstd
    assert np.allclose(xhat.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(xhat.var(axis=0), 1.0, atol=1e-3)


def test_dropout_inverted_scaling():
    cfg = _config(n_layers=2, hidden=16, dropout=0.3)
    params, stats = nn.init_params(cfg, seed=12)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, cfg.input_width))
    a = np.eye(8)
    # expectation of train-mode output equals the dropout-free train output
    base_cfg = nn.ModelConfig(**{**cfg.__dict__, "dropout": 0.0})
    ref, _ = nn.forward(a, x, params, {k: v.copy() for k, v in stats.items()}, base_cfg, train=True)
    acc = np.zeros_like(ref)
    acc_sq = np.zeros_like(ref)
    n_draws = 10000
    drng = np.random.default_rng(14)
    frozen = {k: v.copy() for k, v in stats.items()}
    for _ in range(n_draws):
        out, _ = nn.forward(
            a, x, params, {k: v.copy() for k, v in frozen.items()}, cfg,
            train=True, dropout_rng=drng,
        )
        acc += out
        acc_sq += out * out
    mean = acc / n_draws
    std_err = np.sqrt(np.maximum(acc_sq / n_draws - mean ** 2, 0.0) / n_draws)
    z = np.abs(mean - ref) / np.maximum(std_err, 1e-12)
    # elementwise 3-sigma check; tolerate the expected tail fraction
    assert np.mean(z > 3.0) < 0.02


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_detected():
    cfg = _config(linear_only=True, n_layers=2)
    params, stats = nn.init_params(cfg, seed=15)
    params["w0"][0, 0] = np.inf
    x = np.ones((2, cfg.input_width))
    with pytest.raises(NonFiniteError, match=r"^non-finite values in h at layer 0 \(forward pass\)$"):
        nn.forward(np.eye(2), x, params, stats, cfg)
    params["w0"][0, 0] = 0.0
    out, cache = nn.forward(np.eye(2), x, params, stats, cfg)
    d_out = np.zeros_like(out)
    d_out[1, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"^non-finite values in d_z at layer 1 \(backward pass\)$"):
        nn.backward(d_out, params, cache, cfg)


def test_grad_check_small():
    cfg = _config(hidden=8)
    assert nn.grad_check(cfg, seed=0) < 1e-4


def test_grad_check_linear_exact():
    cfg = _config(hidden=8, linear_only=True)
    assert nn.grad_check(cfg, seed=0, h=1e-2) < 1e-8


def _stepped_checkpoint(tmp_path, seed=16):
    cfg = _config()
    params, stats = nn.init_params(cfg, seed=seed)
    grads = {k: np.ones_like(v) for k, v in params.items()}
    nn.adam_step(params, grads, nn.AdamState(), lr=1e-5, decay=1e-8)
    path = tmp_path / "ckpt.json"
    nn.save_checkpoint(path, cfg, params, stats, "hash123", extra={"note": 1})
    return path, cfg, params, stats


def test_checkpoint_round_trip(tmp_path):
    path, cfg, params, stats = _stepped_checkpoint(tmp_path)
    cfg2, params2, stats2, chash, none, extra = nn.load_checkpoint(path)
    assert cfg2 == cfg
    assert chash == "hash123"
    assert extra == {"note": 1}
    # the slot that once held optimizer state is kept for six-value callers
    assert none is None
    for k in params:
        np.testing.assert_array_equal(params[k], params2[k])
    for k in stats:
        np.testing.assert_array_equal(stats[k], stats2[k])


def test_checkpoint_meta_with_copies_of_config_fields_still_loads(tmp_path):
    # earlier version-2 files also held top-level copies of config fields
    path, cfg, params, *_ = _stepped_checkpoint(tmp_path)

    def add_copies(members):
        meta = json.loads(members["meta.json"])
        assert "grid_size" not in meta and "variant" not in meta
        meta.update(grid_size=cfg.grid_size, variant=cfg.variant)
        members["meta.json"] = json.dumps(meta).encode()

    _rewrite_members(path, add_copies)
    cfg2, params2, *_ = nn.load_checkpoint(path)
    assert cfg2 == cfg
    assert all(np.array_equal(params[k], params2[k]) for k in params)


def test_checkpoint_is_the_given_path_and_opens_with_np_load(tmp_path):
    path, cfg, params, _ = _stepped_checkpoint(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    with np.load(path, allow_pickle=False) as npz:
        np.testing.assert_array_equal(npz["params/w0"], params["w0"])
        assert json.loads(npz["meta.json"])["version"] == nn.CHECKPOINT_VERSION


def test_checkpoint_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    cfg = _config()
    params, stats = nn.init_params(cfg, seed=18)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, now in zip(paths, (1.0e9, 1.7e9)):
        monkeypatch.setattr(time, "time", lambda: now)
        nn.save_checkpoint(path, cfg, params, stats, "hash123", extra={"note": 1})
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        # a checkpoint written while hidden layers still had biases
        (lambda params, stats: params.update(b0=np.zeros(8)), "unexpected ['b0']"),
        (lambda params, stats: stats.pop("var2"), "missing ['var2']"),
        (lambda params, stats: params.update(b4=np.zeros(1)), "b4 has shape [1]"),
        (lambda params, stats: params.update(w1=np.zeros(3)), "w1 has shape [3]"),
        (lambda params, stats: params.update(w1=np.zeros((8, 8), np.float32)), "w1 has shape [8, 8] of float32"),
    ],
)
def test_checkpoint_rejects_names_and_shapes_its_config_lacks(tmp_path, edit, message):
    cfg = _config()
    params, stats = nn.init_params(cfg, seed=17)
    edit(params, stats)
    path = tmp_path / "ckpt.json"
    nn.save_checkpoint(path, cfg, params, stats, "hash123")
    with pytest.raises(ConfigMismatchError, match=re.escape(message)):
        nn.load_checkpoint(path)


def test_base_ont_checkpoint_holds_its_affinity(tmp_path):
    cfg = _config(variant="base_ont")
    params, stats = nn.init_params(cfg, seed=19)
    assert nn.param_shapes(cfg)[1]["affinity"] == (3, 3)
    stats["affinity"][:] = np.random.default_rng(19).random((3, 3))
    path = tmp_path / "ckpt.json"
    nn.save_checkpoint(path, cfg, params, stats, "hash123")
    assert nn.load_checkpoint(path)[2]["affinity"].tobytes() == stats.pop("affinity").tobytes()
    # as a version-3 base_ont checkpoint was written
    nn.save_checkpoint(path, cfg, params, stats, "hash123")
    with pytest.raises(ConfigMismatchError, match=re.escape("missing ['affinity']")):
        nn.load_checkpoint(path)


def _rewrite_members(path, edit):
    """Rewrite the checkpoint zip at `path` with edit({name: bytes}) applied."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


def _with_version(version):
    def edit(members):
        meta = json.loads(members["meta.json"])
        meta["version"] = version
        members["meta.json"] = json.dumps(meta).encode()

    return edit


def test_checkpoint_with_adam_moments_is_refused(tmp_path):
    # a checkpoint holds no optimizer state: a stray adam_t meta key is
    # ignored like any extra key, and an adam/m section is refused
    path, cfg, *_ = _stepped_checkpoint(tmp_path)

    def add_step(members):
        meta = json.loads(members["meta.json"])
        meta["adam_t"] = 1
        members["meta.json"] = json.dumps(meta).encode()

    _rewrite_members(path, add_step)
    assert nn.load_checkpoint(path)[0] == cfg
    _rewrite_members(path, lambda m: m.update({"adam/m/w0.npy": m["params/w0.npy"]}))
    with pytest.raises(ConfigMismatchError, match=re.escape("unexpected sections ['adam/m']")):
        nn.load_checkpoint(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        lambda path: path.write_bytes(b"\x00" * 64),
        lambda path: path.write_text("{\"version\": 1, \"params\": {"),
        lambda path: _rewrite_members(path, lambda m: m.pop("meta.json")),
        lambda path: _rewrite_members(path, lambda m: m.update({"meta.json": b"[2]"})),
        lambda path: _rewrite_members(path, lambda m: m.update({"meta.json": b"{\"version\": 2"})),
        # the header still declares (8, 8) but only three values follow it
        lambda path: _rewrite_members(
            path, lambda m: m.update({"params/w1.npy": m["params/w1.npy"][: -61 * 8]})
        ),
        lambda path: _rewrite_members(path, lambda m: m.update({"params/notes.txt": b"hi"})),
    ],
    ids=["half", "zeros", "json-cut", "no-meta", "meta-list", "meta-cut", "w1-cut", "stray-member"],
)
def test_unreadable_checkpoint_raises_named_error(tmp_path, corrupt):
    path, *_ = _stepped_checkpoint(tmp_path)
    corrupt(path)
    with pytest.raises(UnreadableInputError, match="unreadable checkpoint"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize(
    "write, found",
    [
        # version 1 wrote one JSON document of float lists
        (lambda path: path.write_text(json.dumps({"version": 1, "config": {}, "params": {}})), "JSON file of format version 1"),
        # version 2's config had a rooms_only field
        (lambda path: _rewrite_members(path, _with_version(2)), "zip file of format version 2"),
        # version 3's base_ont checkpoints held no affinity
        (lambda path: _rewrite_members(path, _with_version(3)), "zip file of format version 3"),
        (lambda path: _rewrite_members(path, _with_version(5)), "zip file of format version 5"),
        (lambda path: _rewrite_members(path, _with_version("2")), "zip file of format version '2'"),
    ],
)
def test_checkpoint_of_another_version_is_refused(tmp_path, write, found):
    path, *_ = _stepped_checkpoint(tmp_path)
    write(path)
    with pytest.raises(ConfigMismatchError, match=re.escape(found) + ".*retrain"):
        nn.load_checkpoint(path)
