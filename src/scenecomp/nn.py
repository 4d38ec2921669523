"""Deterministic numeric core: graph convolution stack with manual gradients.

The network is a fixed stack of graph-convolutional layers (feature
propagation through a normalized adjacency, then a linear map), each hidden
layer followed by batch normalization, ReLU, and inverted dropout; the final
layer is plain affine. Hidden layers carry no bias, since batch norm would
cancel it. Everything runs in float64 and all randomness flows from explicit
seeds, so two equal-seed runs produce bitwise-equal parameter trajectories.

Only some rows of the input are non-zero and only some rows of the output
are read (the room nodes, in `scenecomp.model`). `forward` takes those rows
and computes just what they need. The first layer multiplies the non-zero
rows by its weights before propagating them, as Kipf & Welling (2017)
suggest for sparse features, and the last layer propagates into the read
rows only. `backward` never forms the gradient w.r.t. the input features.
Those rows are mostly zero as well, and `scenecomp.model` passes them as a
CSR matrix: layer 0's two products with them, x @ w0 forward and
x.T @ (a.T @ d_z) backward, are then sparse x dense, with work in
proportion to their non-zeros. The same expressions take a dense x.
Every CSR matrix of the package, x and the adjacency included, is built
by `csr_matrix`, the one function that imports scipy.sparse; importing
the package loads no SciPy.

`adam_step` updates the parameters and moments in place. Its elementwise
passes run over one L2-sized block (`ADAM_BLOCK` elements) at a time
rather than over whole arrays, which gives the same bits with far less
memory traffic.

x's width is w0's row count, not necessarily the config's input width.
`scenecomp.model.train` steps over the live rows of w0 only: the feature
columns that some training sample holds a non-zero in, renumbered in
order. This is exact. Every other row's gradient is zero at every step,
and an entry whose gradient has always been zero keeps m = v = +0.0 and
moves by exactly 0 (Kingma & Ba, "Adam", 2015). The renumbering keeps
each row's non-zeros in order, so layer 0's two products sum the same
terms in the same order.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .catalog import DEFAULT_LABELS
from .errors import (
    ConfigMismatchError,
    NonFiniteError,
    ShapeMismatchError,
    UnreadableInputError,
    is_json_int,
    is_json_number,
)
from .graphs import SceneGraph
from .raster import DEFAULT_GRID_SIZE

if TYPE_CHECKING:
    import scipy.sparse as sp

BN_EPS = 1e-5

# the two model variants: without and with the ontology's class affinity
BASE = "base"
BASE_ONT = "base_ont"

# every rule on a field of ModelConfig or scenecomp.model.TrainConfig, the
# two of which check themselves on construction: key -> (test, what the
# value must be)
CONFIG_RULES = {
    **{key: (lambda v: is_json_int(v) and v > 0, "an int > 0")
       for key in ("n_classes", "grid_size", "hidden", "n_layers", "epochs", "batch_size")},
    "seed": (lambda v: is_json_int(v) and v >= 0, "an int >= 0"),
    "variant": (lambda v: v in (BASE, BASE_ONT), f"{BASE!r} or {BASE_ONT!r}"),
    "dropout": (lambda v: is_json_number(v) and 0 <= v < 1, "in [0, 1)"),
    "bn_momentum": (lambda v: is_json_number(v) and 0 <= v <= 1, "in [0, 1]"),
    "linear_only": (lambda v: isinstance(v, bool), "a bool"),
    "lr": (lambda v: is_json_number(v) and math.isfinite(v) and v > 0, "a finite number > 0"),
    "lr_decay": (lambda v: is_json_number(v) and math.isfinite(v) and v >= 0,
                 "a finite number >= 0"),
}


def check_config(values: dict, rules: dict = CONFIG_RULES) -> None:
    """Raise ConfigMismatchError naming the first of values' keys whose value
    breaks its rule in rules, a dict like CONFIG_RULES; keys without a rule pass."""
    for key, value in values.items():
        if key in rules and not rules[key][0](value):
            raise ConfigMismatchError(f"config key {key} is {value!r}, not {rules[key][1]}")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = BASE
    n_classes: int = len(DEFAULT_LABELS)
    grid_size: int = DEFAULT_GRID_SIZE
    hidden: int = 256
    n_layers: int = 5
    dropout: float = 0.2
    bn_momentum: float = 0.1
    linear_only: bool = False  # drop BN/ReLU/dropout (exact-quadratic checks)

    def __post_init__(self):
        check_config(vars(self))

    @property
    def input_width(self) -> int:
        block = self.n_classes * self.grid_size ** 2
        ont = block if self.variant == BASE_ONT else 0
        return block + ont + self.n_classes

    @property
    def output_width(self) -> int:
        return self.n_classes * self.grid_size ** 2

    def layer_widths(self) -> list[tuple[int, int]]:
        widths = [self.input_width] + [self.hidden] * (self.n_layers - 1) + [
            self.output_width
        ]
        return list(zip(widths[:-1], widths[1:]))


def _has_bn(config: ModelConfig, l: int) -> bool:
    """Whether batch norm (and ReLU and dropout) follow layer l."""
    return l < config.n_layers - 1 and not config.linear_only


def param_shapes(config: ModelConfig):
    """Names and shapes of the trainable parameters and the (untrained) stats.

    A layer followed by train-mode batch norm has no bias: batch norm
    subtracts the batch mean, which cancels any bias exactly (its gradient
    is identically zero), and beta takes its role. Returns (params, stats).
    """
    params: dict[str, tuple[int, ...]] = {}
    stats: dict[str, tuple[int, ...]] = {}
    for l, (d_in, d_out) in enumerate(config.layer_widths()):
        params[f"w{l}"] = (d_in, d_out)
        if _has_bn(config, l):
            params[f"gamma{l}"] = params[f"beta{l}"] = (d_out,)
            stats[f"mean{l}"] = stats[f"var{l}"] = (d_out,)
        else:
            params[f"b{l}"] = (d_out,)
    if config.variant == BASE_ONT:  # the class affinity its inputs are mixed with
        stats["affinity"] = (config.n_classes, config.n_classes)
    return params, stats


def init_params(config: ModelConfig, seed: int = 0):
    """Fan-scaled uniform weights, zero biases, identity batch-norm.

    Returns (params, stats): trainable arrays and stats, named and shaped
    as `param_shapes` says; an affinity starts as zeros.
    """
    rng = np.random.default_rng(seed)
    shapes, stat_shapes = param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.startswith("w"):
            limit = math.sqrt(6.0 / sum(shape))
            params[name] = rng.uniform(-limit, limit, size=shape)
        elif name.startswith("gamma"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    stats = {
        name: np.ones(shape) if name.startswith("var") else np.zeros(shape)
        for name, shape in stat_shapes.items()
    }
    return params, stats


def csr_matrix(data, indices, indptr, shape) -> sp.csr_matrix:
    """scipy.sparse.csr_matrix((data, indices, indptr), shape=shape).

    scipy.sparse is imported here alone: its import takes about as long as
    the rest of the package's, and the commands that build no matrix
    (generate, layout, render, ontology) need not pay for it.
    """
    import scipy.sparse

    return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)


def normalized_adjacency(g: SceneGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency with self-loops, D^-1/2 A D^-1/2.

    Rows and columns are the graph's nodes in id order; duplicate edges
    count once. Each entry is the single product d[row] * d[col] of the
    degrees' inverse square roots.
    """
    index = {nid: i for i, nid in enumerate(sorted(n.id for n in g.nodes))}
    n = len(index)
    ends = np.array([(index[p], index[c]) for p, c in g.edges], dtype=np.intp).reshape(-1, 2)
    loops = np.arange(n)
    rows = np.concatenate([loops, ends[:, 0], ends[:, 1]])
    cols = np.concatenate([loops, ends[:, 1], ends[:, 0]])
    # sorted by row, then column, with duplicate edges collapsed
    row, col = np.divmod(np.unique(rows * n + cols), n)
    degree = np.bincount(row, minlength=n)
    d = 1.0 / np.sqrt(degree)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return csr_matrix(d[row] * d[col], col, indptr, (n, n))


def _check_finite(direction: str, layer: int, tensor: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"non-finite values in {tensor} at layer {layer} ({direction} pass)")


def forward(
    a_hat,
    x,
    params: dict,
    stats: dict,
    config: ModelConfig,
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
):
    """Run the layer stack; returns (output, cache) where cache feeds backward.

    x is a scipy CSR matrix or a dense array, as wide as w0 has rows
    (ShapeMismatchError otherwise); layer 0's x @ w0 is a
    sparse x dense product for the former. rows, when given, says that x
    holds the features of these node rows only (every other node's
    features are zero) and asks for these rows of the output only. Layer 0
    then propagates from those rows alone, a_hat[:, rows] @ (x @ w0), and
    the last layer computes only a_hat[rows] @ h @ w + b. Hidden layers run
    over every node, so batch statistics and dropout masks do not depend on
    rows. rows=None means every node.

    In train mode batch norm uses batch statistics (updating the running
    stats in place) and dropout is applied when a dropout_rng is given.
    """
    if x.shape[1] != params["w0"].shape[0]:
        raise ShapeMismatchError(
            f"feature width {x.shape[1]} != expected {params['w0'].shape[0]}"
        )
    sel = slice(None) if rows is None else rows
    h = x
    cache = {"x": x, "layers": []}
    for l in range(config.n_layers):
        a = a_hat
        if l == config.n_layers - 1:
            a = a[sel]
        layer = {}
        if l == 0:
            a = a[:, sel]
            z = a @ (h @ params["w0"])
        else:
            layer["m"] = a @ h
            z = layer["m"] @ params[f"w{l}"]
        layer["a"] = a
        if not _has_bn(config, l):
            z += params[f"b{l}"]
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
        _check_finite("forward", l, "h", h)
    return h, cache


def backward(d_out: np.ndarray, params: dict, cache: dict, config: ModelConfig) -> dict:
    """Gradients of a scalar loss w.r.t. every trainable parameter.

    d_out is the loss gradient at the rows forward returned. The gradient
    w.r.t. the input features is not formed: layer 0's weight gradient is
    x.T @ (a.T @ d_z), which needs only the rows forward propagated from
    and, for a CSR x, is a sparse x dense product over x's non-zeros.
    """
    grads = {}
    d_h = d_out
    for l in reversed(range(config.n_layers)):
        layer = cache["layers"][l]
        if not _has_bn(config, l):
            d_z = d_h
            grads[f"b{l}"] = d_z.sum(axis=0)
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
        _check_finite("backward", l, "d_z", d_z)
        a = layer["a"]
        if l == 0:
            grads["w0"] = cache["x"].T @ (a.T @ d_z)
        else:
            grads[f"w{l}"] = layer["m"].T @ d_z
            d_h = a.T @ (d_z @ params[f"w{l}"].T)
    return grads


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"shape {pred.shape} != {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    # the gradient 2.0 * diff / diff.size, written into diff: the same two
    # operations in the same order, without two more output-sized arrays
    np.multiply(2.0, diff, out=diff)
    diff /= diff.size
    return loss, diff


# --- optimizer ------------------------------------------------------------


# Adam runs its elementwise passes one block of this many elements at a
# time, so that a block's slices of m, v, p, g and the work arrays stay in
# L2 cache between passes.
ADAM_BLOCK = 32768
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    # block-sized work arrays shared by every parameter: a step allocates nothing
    scratch: tuple = field(default_factory=lambda: (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)))


def _flat(a: np.ndarray, what: str) -> np.ndarray:
    """A 1-D view of a; raises rather than letting reshape copy."""
    if not a.flags.c_contiguous:
        raise ShapeMismatchError(f"adam_step needs C-contiguous arrays; {what} is not")
    return a.reshape(-1)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, decay: float) -> None:
    """In-place Adam update; effective lr decays as lr / (1 + decay * t).

    Evaluates, operation by operation and in the same order, with beta1,
    beta2 and eps the ADAM_BETA1, ADAM_BETA2 and ADAM_EPS constants,
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr_t * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    writing every intermediate into m, v, p or the state's scratch arrays.
    The operations run on one block of ADAM_BLOCK elements at a time; each
    is elementwise, so the result is the same bits as whole-array passes.
    """
    state.t += 1
    t = state.t
    lr_t = lr / (1.0 + decay * t)
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros(g.shape)
            state.v[name] = np.zeros(g.shape)
        flat = [
            _flat(a, f"{what} {name}")
            for what, a in (("m", state.m[name]), ("v", state.v[name]),
                            ("param", params[name]), ("grad", g))
        ]
        for lo in range(0, g.size, ADAM_BLOCK):
            m, v, p, gb = (a[lo : lo + ADAM_BLOCK] for a in flat)
            s1, s2 = (s[: gb.size] for s in state.scratch)
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(gb, 1 - ADAM_BETA1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, ADAM_BETA2, out=v)
            np.multiply(gb, 1 - ADAM_BETA2, out=s1)
            np.multiply(s1, gb, out=s1)
            np.add(v, s1, out=v)
            np.divide(m, 1 - ADAM_BETA1 ** t, out=s1)
            np.multiply(s1, lr_t, out=s1)
            np.divide(v, 1 - ADAM_BETA2 ** t, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, ADAM_EPS, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(p, s1, out=p)


# --- gradient checking ----------------------------------------------------


def _random_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    a = np.eye(n)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a[i, j] = a[j, i] = 1.0  # random spanning tree keeps it connected
    deg = a.sum(axis=1)
    d = np.diag(1.0 / np.sqrt(deg))
    return d @ a @ d


def grad_check(config: ModelConfig, seed: int = 0, h: float = 1e-5, n_nodes: int = 6):
    """Max relative error of analytic vs central-difference gradients.

    Dropout is forced off so the loss is a deterministic function of the
    parameters; batch norm runs in train mode (batch statistics).
    """
    config = ModelConfig(**{**asdict(config), "dropout": 0.0})
    rng = np.random.default_rng(seed)
    a_hat = _random_adjacency(n_nodes, rng)
    x = rng.normal(size=(n_nodes, config.input_width))
    target = rng.normal(size=(n_nodes, config.output_width))
    params, stats = init_params(config, seed)
    # non-trivial affine params so BN gradients are exercised
    for name in params:
        if name.startswith(("gamma", "beta", "b")):
            params[name] = rng.normal(loc=1.0 if name.startswith("gamma") else 0.0,
                                      scale=0.1, size=params[name].shape)

    def loss_fn():
        # copy stats so running-average updates never leak between evaluations
        out, cache = forward(
            a_hat, x, params, {k: v.copy() for k, v in stats.items()}, config, train=True
        )
        loss, d_out = mse_loss(out, target)
        return loss, d_out, cache

    loss, d_out, cache = loss_fn()
    grads = backward(d_out, params, cache, config)

    max_rel = 0.0
    for name, p in params.items():
        flat = p.ravel()
        g_flat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()[0]
            flat[i] = orig - h
            lm = loss_fn()[0]
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            ana = g_flat[i]
            denom = max(abs(num), abs(ana), 1e-8)
            max_rel = max(max_rel, abs(num - ana) / denom)
    return max_rel


# --- checkpoints ----------------------------------------------------------

# Changed whenever a stored config or array set would no longer load as written.
CHECKPOINT_VERSION = 4
# Every member carries this fixed time, so equal checkpoints are equal bytes.
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
_META = "meta.json"


def _zip_member(zf: zipfile.ZipFile, name: str, size: int):
    info = zipfile.ZipInfo(name, date_time=_ZIP_TIME)
    info.file_size = size  # lets zipfile pick ZIP64 for members over 2 GiB
    return zf.open(info, "w")


def save_checkpoint(
    path,
    config: ModelConfig,
    params: dict,
    stats: dict,
    catalog_hash: str,
    extra: dict | None = None,
) -> None:
    """Write an uncompressed zip to exactly `path`, whatever its extension.

    It holds `meta.json` (version, config, catalog hash, extra) and one
    `.npy` member per array, `params/<name>` and `stats/<name>`: no optimizer
    state. The bytes depend only on the arguments; `np.load(path,
    allow_pickle=False)` opens the file.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "catalog_hash": catalog_hash,
    }
    sections = {"params": params, "stats": stats}
    if extra:
        meta["extra"] = extra
    with zipfile.ZipFile(path, "w") as zf:
        text = json.dumps(meta).encode("utf-8")
        with _zip_member(zf, _META, len(text)) as f:
            f.write(text)
        for section, arrays in sections.items():
            for name, a in arrays.items():
                with _zip_member(zf, f"{section}/{name}.npy", a.nbytes) as f:
                    np.lib.format.write_array(f, a, allow_pickle=False)


def _read_arrays(zf: zipfile.ZipFile) -> dict:
    sections: dict[str, dict] = {}
    for member in zf.namelist():
        if member == _META:
            continue
        section, _, name = member.rpartition("/")
        if not name.endswith(".npy"):
            raise ValueError(f"unexpected member {member}")
        with zf.open(member) as f:
            sections.setdefault(section, {})[name[:-4]] = np.lib.format.read_array(
                f, allow_pickle=False
            )
    return sections


def _read_checkpoint(path, f):
    """The meta dict and {section: {name: array}} of a current-version checkpoint.

    f is the file at path, open for binary reading. The format is told from
    the content, not the file name. A version-1 (one JSON document) or
    other-version checkpoint raises ConfigMismatchError; a file that cannot
    be read as a checkpoint raises UnreadableInputError.
    """
    is_zip = f.read(4) == b"PK\x03\x04"
    f.seek(0)
    try:
        if is_zip:
            with zipfile.ZipFile(f) as zf:
                meta = json.loads(zf.read(_META))
                if meta["version"] == CHECKPOINT_VERSION:
                    return meta, _read_arrays(zf)
        else:
            meta = json.loads(f.read().decode("utf-8"))
        version = meta["version"]
    # ValueError covers malformed JSON, UTF-8 and .npy data; TypeError a
    # meta that is not a JSON object
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as e:
        raise UnreadableInputError(f"unreadable checkpoint {path}: {e}") from e
    raise ConfigMismatchError(
        f"checkpoint {path} is a {'zip' if is_zip else 'JSON'} file of format "
        f"version {version!r}; only version {CHECKPOINT_VERSION} zip files can "
        f"be read: retrain to write one"
    )


def _checked_arrays(section: str, arrays: dict, shapes: dict) -> dict:
    """One checkpoint section's arrays, named and shaped exactly as `shapes`."""
    unexpected = sorted(set(arrays) - set(shapes))
    missing = sorted(set(shapes) - set(arrays))
    if unexpected or missing:
        raise ConfigMismatchError(
            f"checkpoint {section} do not match its config: "
            f"unexpected {unexpected}, missing {missing}"
        )
    for name, shape in shapes.items():
        a = arrays[name]
        if a.shape != shape or a.dtype != np.float64:
            raise ConfigMismatchError(
                f"checkpoint {section} entry {name} has shape {list(a.shape)} "
                f"of {a.dtype}; its config needs {list(shape)} of float64"
            )
    return {name: arrays[name] for name in shapes}


def load_checkpoint(path, raw: bytes | None = None):
    """Read a checkpoint written by `save_checkpoint`, from raw if given (the
    file's bytes, already read; path then only names it) or else from path.

    Every parameter and stat must carry exactly the names and shapes that
    the stored config gives (`param_shapes`); anything else, and another
    format version, raise ConfigMismatchError. A file that is not a readable
    checkpoint, or whose stored config breaks a rule of CONFIG_RULES, raises
    UnreadableInputError. Returns (config, params, stats, catalog_hash,
    None, extra): the 5th element, once optimizer state, is kept so that
    callers that unpack six values still work.
    """
    with (open(path, "rb") if raw is None else io.BytesIO(raw)) as f:
        meta, sections = _read_checkpoint(path, f)
    try:
        config = ModelConfig(**meta["config"])
        catalog_hash, extra = meta["catalog_hash"], meta.get("extra")
    except (KeyError, TypeError) as e:
        raise UnreadableInputError(f"unreadable checkpoint {path}: bad meta {e}") from e
    except ConfigMismatchError as e:
        raise UnreadableInputError(f"unreadable checkpoint {path}: stored {e}") from e
    unexpected = sorted(set(sections) - {"params", "stats"})
    if unexpected:
        raise ConfigMismatchError(f"checkpoint has unexpected sections {unexpected}")
    shapes, stat_shapes = param_shapes(config)
    params = _checked_arrays("params", sections.get("params", {}), shapes)
    stats = _checked_arrays("stats", sections.get("stats", {}), stat_shapes)
    return config, params, stats, catalog_hash, None, extra
