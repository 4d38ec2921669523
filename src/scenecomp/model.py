"""Model assembly over belief-graph samples: encoding, training, prediction.

Room nodes carry the whole signal (flattened partial heatmaps, counts, and
for the ontology variant an affinity-mixed copy of the heatmaps); all other
nodes get zero features, so room-to-room information flows through the
building node during message passing. Loss is computed on room rows only,
against the raw network output. An encoded sample therefore holds the room
rows' features alone, and the network is asked for the room rows' outputs
alone (`nn.forward`'s `rows`); every node still takes part in message
passing.

The room rows are themselves mostly zero: a class absent from a room has
an all-zero heatmap plane, and a present object covers only a few cells.
They are stored as a CSR matrix from encoding through batching, so the
network's first layer works in proportion to their non-zeros.

Many feature columns are zero in every room of a training split, so their
rows of w0 have a zero gradient at every step and never change. `train`
finds the live columns once and steps over those rows of w0 alone, with the
same bits as stepping over all of w0 (see `train`).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .dataset import BsgSample, splitmix64
from .errors import ConfigMismatchError, EmptyDatasetError
from .ontology import ClassAffinity
from .raster import HeatmapSet

if TYPE_CHECKING:
    import scipy.sparse as sp

BASE = "base"
BASE_ONT = "base_ont"


@dataclass
class CompositionModel:
    config: nn.ModelConfig
    params: dict
    stats: dict
    catalog_hash: str


def new_model(
    config: nn.ModelConfig,
    catalog_hash: str,
    seed: int = 0,
    affinity: ClassAffinity | None = None,
) -> CompositionModel:
    params, stats = nn.init_params(config, seed)
    if config.variant == BASE_ONT:
        if affinity is None or affinity.matrix.shape != stats["affinity"].shape:
            raise ConfigMismatchError("ontology variant needs a class affinity of its classes")
        stats["affinity"][...] = affinity.matrix
    return CompositionModel(config, params, stats, catalog_hash)


@dataclass
class EncodedSample:
    a_hat: sp.csr_matrix
    x: sp.csr_matrix  # [n_rooms, input_width]: the room rows' features
    room_rows: np.ndarray  # the room nodes' rows in a_hat, in the order of x
    target: np.ndarray  # [n_rooms, output_width]


def encode_inputs(sample: BsgSample, model: CompositionModel) -> EncodedSample:
    """Room-row features and normalized adjacency for one belief-graph sample.

    Row ri of x holds room ri's flattened heatmaps, its counts and, for the
    ontology variant, its affinity-mixed heatmaps; every other node's
    features are zero and are not stored. x is CSR with sorted column
    indices and no stored zeros, built one room at a time from the room's
    present planes (those with a non-zero cell). Its heatmaps' non-zeros
    all lie in them, and the mix reads only them: the absent planes add
    exact zeros to each sum, so the values are those of the mix over every
    plane.
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
    a_hat = nn.normalized_adjacency(sample.graph)
    index = {nid: i for i, nid in enumerate(sorted(n.id for n in sample.graph.nodes))}
    heat = sample.input_heatmaps
    n_rooms, plane = len(heat.room_ids), cfg.grid_size ** 2
    block = cfg.n_classes * plane
    # the leading empty arrays give a room-less sample something to concatenate
    indptr, indices, data = [0], [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    for ri in range(n_rooms):
        h = heat.data[ri]
        present = np.flatnonzero(h.any(axis=(1, 2)))
        h_present = h[present]
        counts = sample.counts.data[ri]
        nz, nz_counts = np.flatnonzero(h_present), np.flatnonzero(counts)
        # the non-zeros' (plane, cell) in h_present, as columns of x
        cols = [present[nz // plane] * plane + nz % plane, block + nz_counts]
        vals = [h_present.ravel()[nz], counts[nz_counts]]
        if cfg.variant == BASE_ONT:
            mixed = np.einsum("ij,jxy->ixy", model.stats["affinity"][:, present], h_present).ravel()
            nz = np.flatnonzero(mixed)
            cols.append(block + cfg.n_classes + nz)
            vals.append(mixed[nz])
        indices += cols
        data += vals
        indptr.append(indptr[-1] + sum(len(c) for c in cols))
    x = nn.csr_matrix(
        np.concatenate(data, dtype=np.float64),
        np.concatenate(indices, dtype=np.int32),
        np.array(indptr, dtype=np.int32),
        (n_rooms, cfg.input_width),
    )
    room_rows = np.array([index[rid] for rid in heat.room_ids], dtype=np.intp)
    target = sample.target_heatmaps.data.reshape(n_rooms, cfg.output_width)
    return EncodedSample(a_hat, x, room_rows, target)


def postprocess(
    raw_rooms: np.ndarray, sample: BsgSample, config: nn.ModelConfig
) -> HeatmapSet:
    """Clamp, gate by counts, and renormalize into a valid heatmap set.

    Classes with zero count in a room get an exactly-zero grid; present
    classes are renormalized to sum 1 (uniform fallback when the clamped
    output carries no mass).
    """
    s = config.grid_size
    grids = np.clip(raw_rooms.reshape(-1, config.n_classes, s, s), 0.0, None)
    totals = grids.sum(axis=(2, 3))
    present = sample.counts.data > 0
    has_mass = present & (totals > 0)
    grids[~present] = 0.0
    grids[has_mass] /= totals[has_mass][:, None, None]
    grids[present & ~has_mass] = 1.0 / (s * s)
    return HeatmapSet(
        grids,
        sample.input_heatmaps.room_ids,
        s,
        sample.input_heatmaps.room_frames,
    )


def predict_many(model: CompositionModel, samples: list[BsgSample]) -> list[HeatmapSet]:
    """Predicted heatmap sets for several samples from one eval-mode forward.

    The samples' graphs are stacked block-diagonally (`_batch`). In eval
    mode no layer mixes rows of different graphs: batch norm applies its
    running stats and every product works row by row. Each set is therefore
    the same bits as `predict` on its sample alone.
    """
    if not samples:
        return []
    encoded = [encode_inputs(s, model) for s in samples]
    a, x, rows = _batch(encoded)
    out, _ = nn.forward(a, x, model.params, model.stats, model.config, rows=rows)
    heats, start = [], 0
    for s, e in zip(samples, encoded):
        end = start + len(e.room_rows)
        heats.append(postprocess(out[start:end], s, model.config))
        start = end
    return heats


def predict(model: CompositionModel, sample: BsgSample) -> HeatmapSet:
    """Predicted heatmap set for one sample; always a valid HeatmapSet."""
    return predict_many(model, [sample])[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000
    batch_size: int = 12
    lr: float = 1e-5
    lr_decay: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size <= 0 or self.lr <= 0 or self.lr_decay < 0:
            raise ValueError("train config values must be positive")


def _stack_csr(mats: list[sp.csr_matrix], diagonal: bool) -> sp.csr_matrix:
    """The CSR matrices stacked row-wise by concatenating their arrays.

    With diagonal, each matrix's columns follow the previous ones' (the
    same matrix, entry for entry, as scipy.sparse.block_diag(..., format="csr"));
    otherwise all share the first's columns (as scipy.sparse.vstack(..., format="csr")).
    """
    indptr, indices = [np.zeros(1, dtype=np.int32)], []
    nnz = n_cols = 0
    for m in mats:
        indptr.append(m.indptr[1:] + nnz)
        indices.append(m.indices + n_cols if diagonal else m.indices)
        nnz += m.nnz
        if diagonal:
            n_cols += m.shape[1]
    return nn.csr_matrix(
        np.concatenate([m.data for m in mats]),
        np.concatenate(indices),
        np.concatenate(indptr),
        (sum(m.shape[0] for m in mats), n_cols if diagonal else mats[0].shape[1]),
    )


def _batch(encoded: list[EncodedSample]):
    """Stack several graphs into one block-diagonal message-passing problem.

    Returns (adjacency over every node, room-row features, room-row indices
    into the adjacency); the features are in the order of the indices, as
    is `np.vstack` of the samples' targets. The adjacency is block-diagonal
    and the features (CSR) are row-stacked, both by concatenating CSR arrays.
    """
    rows, n = [], 0
    for e in encoded:
        rows.append(e.room_rows + n)
        n += e.a_hat.shape[0]
    a = _stack_csr([e.a_hat for e in encoded], diagonal=True)
    x = _stack_csr([e.x for e in encoded], diagonal=False)
    return a, x, np.concatenate(rows)


def validation_loss(model: CompositionModel, encoded: list[EncodedSample]) -> float:
    if not encoded:
        return float("nan")
    a, x, rows = _batch(encoded)
    out, _ = nn.forward(a, x, model.params, model.stats, model.config, rows=rows)
    return nn.mse_loss(out, np.vstack([e.target for e in encoded]))[0]


def _live_columns(encoded: list[EncodedSample]):
    """The sorted union of the samples' feature columns, and the samples with
    their features' columns renumbered to positions in that union.

    The renumbering is monotone, so each row's non-zeros keep their order.
    """
    live = np.unique(np.concatenate([e.x.indices for e in encoded]))
    compact = [
        replace(e, x=nn.csr_matrix(
            e.x.data,
            np.searchsorted(live, e.x.indices).astype(e.x.indices.dtype),
            e.x.indptr,
            (e.x.shape[0], len(live)),
        ))
        for e in encoded
    ]
    return live, compact


def train(
    model: CompositionModel,
    train_set: list[BsgSample],
    val_set: list[BsgSample] | None,
    cfg: TrainConfig,
):
    """Mini-batch Adam on raw-output MSE over room rows.

    Batches are whole graphs (the final partial batch is used). The model
    with the best validation loss is retained when a validation set is
    given. Returns (model, history) with per-epoch train/val losses.

    Steps run over the live rows of w0 only: those of the feature columns
    that some training sample holds a non-zero in. Every other row has a
    zero gradient at every step, so its Adam moments stay exactly 0 and its
    update is exactly 0: it never changes. The training samples' columns are
    renumbered once, monotonically, to rows of the contiguous w0[live], so
    layer 0's products sum the same terms in the same order, and forward,
    backward and Adam give the same bits as over the full w0. w0[live] is
    written back into the full w0 before each validation pass and before
    returning.
    """
    if not train_set:
        raise EmptyDatasetError("empty training set")
    live, enc_train = _live_columns([encode_inputs(s, model) for s in train_set])
    enc_val = [encode_inputs(s, model) for s in (val_set or [])]
    w0 = model.params["w0"]
    # the other parameters are shared with model.params and updated in place
    params = {**model.params, "w0": w0[live]}

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
                a, x, params, model.stats, model.config,
                train=True, dropout_rng=dropout_rng, rows=rows,
            )
            loss, d_out = nn.mse_loss(out, np.vstack([e.target for e in batch]))
            grads = nn.backward(d_out, params, cache, model.config)
            nn.adam_step(params, grads, adam, cfg.lr, cfg.lr_decay)
            epoch_losses.append(loss)
        val = None
        if enc_val:
            w0[live] = params["w0"]
            val = validation_loss(model, enc_val)
        history.append({"epoch": epoch, "train": float(np.mean(epoch_losses)), "val": val})
        if enc_val and val < best_val:
            best_val = val
            best = (copy.deepcopy(model.params), copy.deepcopy(model.stats))
    w0[live] = params["w0"]
    if best is not None:
        model.params, model.stats = best
    return model, history


def evaluate_model(model: CompositionModel, test_set: list[BsgSample], provenance=None):
    """Metrics report over a test set, predicted by one `predict_many` forward."""
    from .metrics import evaluate_many

    preds = predict_many(model, test_set)
    return evaluate_many(zip(preds, (s.target_heatmaps for s in test_set)), provenance)
