"""Statistical distances between heatmap sets and four-moment summaries.

2D grids are compared as 1D distributions over their row-major flattening,
with support points spread evenly over [0, 1] so values are comparable
across grid resolutions. The convention is recorded in every report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizedError, ShapeMismatchError
from .raster import HeatmapSet

FLATTENING_CONVENTION = "row-major-1d-unit-support"
NORMALIZATION_ATOL = 1e-6


def _check_rows(p: np.ndarray) -> None:
    """Raise NotNormalizedError unless each row is non-negative and sums to 1."""
    if np.any(np.abs(p.sum(axis=1) - 1.0) > NORMALIZATION_ATOL) or np.any(p < 0):
        raise NotNormalizedError("distribution must be non-negative and sum to 1")


def _w1_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """1-Wasserstein distance between each row of p and the same row of q."""
    du = 1.0 / (p.shape[1] - 1)
    return np.abs(np.cumsum(p - q, axis=1)).sum(axis=1) * du


def _energy_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Energy distance between each row of p and the same row of q.

    Expectations reduce through the CDF identity
    E|X-Y| = sum_k (F_p + F_q - 2 F_p F_q)(u_k) * du to the exact form
    2 sum_k (F_p - F_q)^2(u_k) * du, which matches the weighted double sum
    over support points and is identically zero when p == q.
    """
    du = 1.0 / (p.shape[1] - 1)
    fp = np.cumsum(p, axis=1)[:, :-1]
    fq = np.cumsum(q, axis=1)[:, :-1]
    return np.sqrt(2.0 * ((fp - fq) ** 2).sum(axis=1) * du)


def _one_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two distributions as checked one-row arrays over a shared support."""
    p, q = (np.asarray(a, dtype=np.float64).reshape(1, -1) for a in (p, q))
    _check_rows(p)
    _check_rows(q)
    if p.size != q.size:
        raise ShapeMismatchError("distributions must share a support")
    return p, q


def wasserstein_grid(p: np.ndarray, q: np.ndarray) -> float:
    """1-Wasserstein distance over the flattened unit-interval support."""
    return float(_w1_rows(*_one_pair(p, q))[0])


def energy_grid(p: np.ndarray, q: np.ndarray) -> float:
    """Energy distance sqrt(2 E|X-Y| - E|X-X'| - E|Y-Y'|) on the same support."""
    return float(_energy_rows(*_one_pair(p, q))[0])


def _frobenius_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius norm of a[i] - b[i] for each index i of the first axis."""
    return np.sqrt(((a - b) ** 2).sum(axis=tuple(range(1, a.ndim))))


def frobenius_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the elementwise difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape {a.shape} != {b.shape}")
    return float(_frobenius_rows(a[None], b[None])[0])


@dataclass(frozen=True)
class Moments:
    n: int
    mean: float | None = None
    variance: float | None = None
    skewness: float | None = None
    kurtosis: float | None = None  # excess kurtosis

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
        }


def four_moments(samples) -> Moments:
    """Sample mean, unbiased variance, bias-corrected skewness, excess kurtosis.

    Fields that need more samples (or nonzero variance) than available are
    reported absent rather than raising.
    """
    x = np.asarray(list(samples), dtype=np.float64)
    n = x.size
    if n == 0:
        return Moments(0)
    mean = float(x.mean())
    if n < 2:
        return Moments(n, mean)
    variance = float(x.var(ddof=1))
    m2 = float(x.var(ddof=0))
    skewness = kurtosis = None
    if m2 > 0:
        centered = x - mean
        if n >= 3:
            g1 = float((centered ** 3).mean()) / m2 ** 1.5
            skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        if n >= 4:
            g2 = float((centered ** 4).mean()) / m2 ** 2 - 3.0
            kurtosis = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
    return Moments(n, mean, variance, skewness, kurtosis)


@dataclass(frozen=True)
class MetricsReport:
    """Moment summaries for each distance over its evaluation population.

    Distances are one value per (room, class-present-in-truth) pair; the
    Frobenius norm is one value per room over its full class stack.
    """

    wasserstein: Moments
    energy: Moments
    frobenius: Moments
    provenance: dict | None = None

    def to_dict(self) -> dict:
        return {
            "flattening_convention": FLATTENING_CONVENTION,
            "wasserstein": self.wasserstein.to_dict(),
            "energy": self.energy.to_dict(),
            "frobenius": self.frobenius.to_dict(),
            "provenance": self.provenance or {},
        }


def _collect(pairs):
    """W1 and energy per (room, present class) and Frobenius per room.

    Pools the values of every (pred, truth) heatmap-set pair, in order;
    within a set the (room, class) pairs run in row-major order. Each set's
    present planes become rows of two arrays, checked and compared row by
    row.
    """
    # the leading empty arrays give an empty pairs list something to concatenate
    w_vals, e_vals, f_vals = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
    for pred, truth in pairs:
        if pred.data.shape != truth.data.shape:
            raise ShapeMismatchError(
                f"prediction shape {pred.data.shape} != truth shape {truth.data.shape}"
            )
        if pred.room_ids != truth.room_ids:
            raise ShapeMismatchError("prediction and truth room ids differ")
        pred_data, truth_data = (np.asarray(h.data, dtype=np.float64) for h in (pred, truth))
        present = truth_data.sum(axis=(2, 3)) > 0
        plane = truth_data.shape[2] * truth_data.shape[3]
        p, q = (d[present].reshape(-1, plane) for d in (pred_data, truth_data))
        _check_rows(p)
        _check_rows(q)
        w_vals.append(_w1_rows(p, q))
        e_vals.append(_energy_rows(p, q))
        f_vals.append(_frobenius_rows(pred_data, truth_data))
    return tuple(np.concatenate(v) for v in (w_vals, e_vals, f_vals))


def evaluate(pred: HeatmapSet, truth: HeatmapSet, provenance: dict | None = None) -> MetricsReport:
    """Distances per (room, present class), Frobenius per room, four moments each."""
    return evaluate_many([(pred, truth)], provenance)


def evaluate_many(pairs, provenance: dict | None = None) -> MetricsReport:
    """Pool the populations of several (pred, truth) heatmap-set pairs."""
    w_vals, e_vals, f_vals = _collect(pairs)
    return MetricsReport(
        four_moments(w_vals), four_moments(e_vals), four_moments(f_vals), provenance
    )
