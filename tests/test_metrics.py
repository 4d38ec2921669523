import math

import numpy as np
import pytest
from scipy import stats as sps

from scenecomp.catalog import default_catalog
from scenecomp.dataset import default_templates, generate_synthetic_scene, make_sample
from scenecomp.errors import NotNormalizedError, ShapeMismatchError
from scenecomp.graphs import augment
from scenecomp.metrics import (
    NORMALIZATION_ATOL,
    MetricsReport,
    _collect,
    energy_grid,
    evaluate,
    evaluate_many,
    four_moments,
    frobenius_diff,
    wasserstein_grid,
)
from scenecomp.raster import HeatmapSet

# --- reference: the per-pair metrics loop, verbatim apart from names --------
#
# `_collect` gathers each heatmap-set pair's present planes into arrays and
# compares them row by row; this is the loop it replaced, one (room, class)
# pair and one distance call at a time.


def _as_flat_dist(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64).ravel()
    if abs(p.sum() - 1.0) > NORMALIZATION_ATOL or np.any(p < 0):
        raise NotNormalizedError("distribution must be non-negative and sum to 1")
    return p


def loop_wasserstein_grid(p: np.ndarray, q: np.ndarray) -> float:
    """1-Wasserstein distance over the flattened unit-interval support."""
    p, q = _as_flat_dist(p), _as_flat_dist(q)
    if p.size != q.size:
        raise ShapeMismatchError("distributions must share a support")
    du = 1.0 / (p.size - 1)
    return float(np.abs(np.cumsum(p - q)).sum() * du)


def loop_energy_grid(p: np.ndarray, q: np.ndarray) -> float:
    p, q = _as_flat_dist(p), _as_flat_dist(q)
    if p.size != q.size:
        raise ShapeMismatchError("distributions must share a support")
    du = 1.0 / (p.size - 1)
    fp = np.cumsum(p)[:-1]
    fq = np.cumsum(q)[:-1]
    return math.sqrt(2.0 * float(((fp - fq) ** 2).sum()) * du)


def loop_frobenius_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the elementwise difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape {a.shape} != {b.shape}")
    return float(np.sqrt(((a - b) ** 2).sum()))


def loop_collect(pred: HeatmapSet, truth: HeatmapSet):
    if pred.data.shape != truth.data.shape:
        raise ShapeMismatchError(
            f"prediction shape {pred.data.shape} != truth shape {truth.data.shape}"
        )
    if pred.room_ids != truth.room_ids:
        raise ShapeMismatchError("prediction and truth room ids differ")
    w_vals, e_vals, f_vals = [], [], []
    present = truth.data.sum(axis=(2, 3)) > 0
    for ri in range(truth.data.shape[0]):
        for ci in np.nonzero(present[ri])[0]:
            w_vals.append(loop_wasserstein_grid(pred.data[ri, ci], truth.data[ri, ci]))
            e_vals.append(loop_energy_grid(pred.data[ri, ci], truth.data[ri, ci]))
        f_vals.append(loop_frobenius_diff(pred.data[ri], truth.data[ri]))
    return w_vals, e_vals, f_vals


def loop_evaluate_many(pairs, provenance: dict | None = None) -> MetricsReport:
    """Pool the populations of several (pred, truth) heatmap-set pairs."""
    w_all, e_all, f_all = [], [], []
    for pred, truth in pairs:
        w, e, f = loop_collect(pred, truth)
        w_all += w
        e_all += e
        f_all += f
    return MetricsReport(
        four_moments(w_all), four_moments(e_all), four_moments(f_all), provenance
    )


def _rand_dist(rng, s):
    p = rng.random((s, s))
    return p / p.sum()


def _point_mass(s, idx):
    p = np.zeros(s * s)
    p[idx] = 1.0
    return p.reshape(s, s)


def wasserstein_oracle(p, q):
    """Brute-force CDF accumulation over the flattened support."""
    p, q = p.ravel(), q.ravel()
    n = p.size
    du = 1.0 / (n - 1)
    total = 0.0
    cp = cq = 0.0
    for k in range(n):
        cp += p[k]
        cq += q[k]
        total += abs(cp - cq) * du
    return total


def energy_oracle(p, q):
    """Brute-force weighted double sums over support points."""
    p, q = p.ravel(), q.ravel()
    n = p.size
    u = np.arange(n) / (n - 1)
    d = np.abs(u[:, None] - u[None, :])
    e_xy = p @ d @ q
    e_xx = p @ d @ p
    e_yy = q @ d @ q
    return math.sqrt(max(0.0, 2 * e_xy - e_xx - e_yy))


def test_wasserstein_identical():
    rng = np.random.default_rng(0)
    p = _rand_dist(rng, 8)
    assert wasserstein_grid(p, p) == 0.0


def test_wasserstein_point_masses():
    s = 8
    p = _point_mass(s, 0)
    q = _point_mass(s, s * s - 1)
    assert wasserstein_grid(p, q) == pytest.approx(1.0, abs=1e-12)
    # closed form |a-b| on the unit support
    a, b = 5, 37
    expected = abs(a - b) / (s * s - 1)
    assert wasserstein_grid(_point_mass(s, a), _point_mass(s, b)) == pytest.approx(
        expected, abs=1e-12
    )


def test_wasserstein_point_vs_uniform():
    s = 4
    n = s * s
    p = _point_mass(s, 0)
    q = np.full((s, s), 1.0 / n)
    # mean of the uniform support points, by direct CDF summation
    assert wasserstein_grid(p, q) == pytest.approx(wasserstein_oracle(p, q), abs=1e-12)
    u = np.arange(n) / (n - 1)
    assert wasserstein_grid(p, q) == pytest.approx(float(u.mean()), abs=1e-12)


def test_wasserstein_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q = _rand_dist(rng, 8), _rand_dist(rng, 8)
        assert wasserstein_grid(p, q) == pytest.approx(wasserstein_oracle(p, q), abs=1e-10)


def test_wasserstein_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q, r = (_rand_dist(rng, 5) for _ in range(3))
        assert wasserstein_grid(p, r) <= wasserstein_grid(p, q) + wasserstein_grid(q, r) + 1e-9


def test_energy_identical_and_deltas():
    rng = np.random.default_rng(3)
    p = _rand_dist(rng, 8)
    assert energy_grid(p, p) == 0.0
    s = 8
    d = energy_grid(_point_mass(s, 0), _point_mass(s, s * s - 1))
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)
    a, b = 3, 19
    expected = math.sqrt(2 * abs(a - b) / (s * s - 1))
    assert energy_grid(_point_mass(s, a), _point_mass(s, b)) == pytest.approx(expected, abs=1e-12)


def test_energy_matches_double_sum_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = _rand_dist(rng, 8), _rand_dist(rng, 8)
        assert energy_grid(p, q) == pytest.approx(energy_oracle(p, q), abs=1e-10)


def test_energy_positivity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = _rand_dist(rng, 4), _rand_dist(rng, 4)
        assert energy_grid(p, q) >= 0
        if not np.allclose(p, q):
            assert energy_grid(p, q) > 0


def test_not_normalized_rejected():
    p = np.full((4, 4), 1.0 / 16)
    with pytest.raises(NotNormalizedError):
        wasserstein_grid(p * 2, p)
    with pytest.raises(NotNormalizedError):
        energy_grid(p, p * 0.5)


def test_frobenius():
    a = np.zeros((2, 3, 3))
    b = np.zeros((2, 3, 3))
    assert frobenius_diff(a, b) == 0.0
    b[0, 0, 0] = 1.0
    b[1, 2, 2] = -1.0
    assert frobenius_diff(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
    oracle = math.sqrt(float(((x - y) ** 2).sum()))
    assert frobenius_diff(x, y) == pytest.approx(oracle, abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        frobenius_diff(np.zeros((2, 2)), np.zeros((3, 3)))


def test_four_moments_guards():
    m = four_moments([1.0, 1.0, 1.0, 1.0])
    assert m.variance == 0.0
    assert m.skewness is None and m.kurtosis is None

    m = four_moments([-1.0, 1.0, -1.0, 1.0])
    assert m.mean == 0.0
    assert m.skewness == pytest.approx(0.0, abs=1e-12)

    assert four_moments([]).mean is None
    assert four_moments([2.0]).variance is None
    assert four_moments([1.0, 2.0]).skewness is None


def test_four_moments_example():
    m = four_moments([0.0, 0.0, 0.0, 1.0])
    assert m.mean == pytest.approx(0.25)
    assert m.variance == pytest.approx(0.25)
    x = [0.0, 0.0, 0.0, 1.0]
    assert m.skewness == pytest.approx(sps.skew(x, bias=False), abs=1e-12)
    assert m.kurtosis == pytest.approx(sps.kurtosis(x, fisher=True, bias=False), abs=1e-12)


def test_four_moments_scipy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=rng.integers(4, 40))
        m = four_moments(x)
        assert m.mean == pytest.approx(float(np.mean(x)), abs=1e-10)
        assert m.variance == pytest.approx(float(np.var(x, ddof=1)), abs=1e-10)
        assert m.skewness == pytest.approx(float(sps.skew(x, bias=False)), abs=1e-10)
        assert m.kurtosis == pytest.approx(
            float(sps.kurtosis(x, fisher=True, bias=False)), abs=1e-10
        )


def test_excess_kurtosis_gaussian():
    x = np.random.default_rng(8).normal(size=100_000)
    assert abs(four_moments(x).kurtosis) < 0.1


def _heatmap_set(data, room_ids=(1, 2)):
    frames = tuple((0.0, 0.0, 4.0, 4.0) for _ in room_ids)
    return HeatmapSet(np.asarray(data, dtype=float), tuple(room_ids), data.shape[-1], frames)


def test_evaluate_perfect_prediction():
    rng = np.random.default_rng(9)
    data = np.zeros((2, 3, 4, 4))
    data[0, 0] = _rand_dist(rng, 4)
    data[1, 2] = _rand_dist(rng, 4)
    truth = _heatmap_set(data)
    report = evaluate(truth, truth)
    assert report.wasserstein.mean == 0.0
    assert report.energy.mean == 0.0
    assert report.frobenius.mean == 0.0
    assert report.wasserstein.n == 2  # only present classes counted
    assert report.frobenius.n == 2  # one per room


def test_evaluate_hand_assembled():
    rng = np.random.default_rng(10)
    truth_data = np.zeros((1, 2, 4, 4))
    pred_data = np.zeros((1, 2, 4, 4))
    truth_data[0, 0] = _rand_dist(rng, 4)
    truth_data[0, 1] = _rand_dist(rng, 4)
    pred_data[0, 0] = _rand_dist(rng, 4)
    pred_data[0, 1] = _rand_dist(rng, 4)
    pred = _heatmap_set(pred_data, room_ids=(7,))
    truth = _heatmap_set(truth_data, room_ids=(7,))
    report = evaluate(pred, truth)
    w_vals = [wasserstein_oracle(pred_data[0, c], truth_data[0, c]) for c in range(2)]
    e_vals = [energy_oracle(pred_data[0, c], truth_data[0, c]) for c in range(2)]
    f_val = math.sqrt(float(((pred_data[0] - truth_data[0]) ** 2).sum()))
    assert report.wasserstein.mean == pytest.approx(np.mean(w_vals), abs=1e-10)
    assert report.energy.mean == pytest.approx(np.mean(e_vals), abs=1e-10)
    assert report.frobenius.mean == pytest.approx(f_val, abs=1e-10)


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(11)
    truth_data = np.stack([[_rand_dist(rng, 4) for _ in range(3)]])
    pred_data = np.stack([[_rand_dist(rng, 4) for _ in range(3)]])
    perm = [2, 0, 1]
    r1 = evaluate(_heatmap_set(pred_data, (1,)), _heatmap_set(truth_data, (1,)))
    r2 = evaluate(
        _heatmap_set(pred_data[:, perm], (1,)), _heatmap_set(truth_data[:, perm], (1,))
    )
    assert r1.wasserstein.mean == pytest.approx(r2.wasserstein.mean, abs=1e-12)
    assert r1.energy.mean == pytest.approx(r2.energy.mean, abs=1e-12)
    assert r1.frobenius.mean == pytest.approx(r2.frobenius.mean, abs=1e-12)


def test_evaluate_many_pools_populations():
    rng = np.random.default_rng(12)
    pairs = []
    for _ in range(3):
        d = np.stack([[_rand_dist(rng, 4)]])
        p = np.stack([[_rand_dist(rng, 4)]])
        pairs.append((_heatmap_set(p, (1,)), _heatmap_set(d, (1,))))
    report = evaluate_many(pairs)
    assert report.wasserstein.n == 3
    assert report.frobenius.n == 3
    d = report.to_dict()
    assert set(d["wasserstein"]) == {"n", "mean", "variance", "skewness", "kurtosis"}


def _generated_pairs(grid: int, n: int = 5):
    """(prediction, truth) heatmap-set pairs: generated scenes' target heatmaps
    against random distributions, over present and absent classes alike."""
    catalog, rng = default_catalog(), np.random.default_rng(grid)
    pairs = []
    for seed in range(n):
        g = augment(generate_synthetic_scene(default_templates(), 3, seed, catalog), 0.25, seed)
        truth = make_sample(g, 0.25, grid, seed).target_heatmaps
        data = rng.random(truth.data.shape) * (rng.random(truth.data.shape[:2]) < 0.4)[..., None, None]
        data[truth.data.sum(axis=(2, 3)) > 0] += rng.random(grid * grid).reshape(grid, grid)
        totals = data.sum(axis=(2, 3))
        data[totals > 0] /= totals[totals > 0][:, None, None]
        pairs.append((HeatmapSet(data, truth.room_ids, grid, truth.room_frames), truth))
    return pairs


def _assert_same_values(got: np.ndarray, want: list) -> None:
    assert got.dtype == np.float64 and got.tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.mark.parametrize("grid", [8, 16])
def test_collect_bitwise_equals_loop(grid):
    pairs = _generated_pairs(grid)
    for pred, truth in pairs:
        for got, want in zip(_collect([(pred, truth)]), loop_collect(pred, truth)):
            _assert_same_values(got, want)
        present = truth.data.sum(axis=(2, 3)) > 0
        for p, q in zip(pred.data[present], truth.data[present]):
            assert wasserstein_grid(p, q) == loop_wasserstein_grid(p, q)
            assert energy_grid(p, q) == loop_energy_grid(p, q)
        for a, b in zip(pred.data, truth.data):
            assert frobenius_diff(a, b) == loop_frobenius_diff(a, b)
    ref = [loop_collect(pred, truth) for pred, truth in pairs]
    for k, got in enumerate(_collect(pairs)):
        _assert_same_values(got, [v for vals in ref for v in vals[k]])
    assert evaluate_many(pairs, {"k": 1}) == loop_evaluate_many(pairs, {"k": 1})
    assert evaluate(*pairs[0]) == loop_evaluate_many(pairs[:1])


def test_collect_pools_grid_sizes_as_loop():
    pairs = _generated_pairs(8, 2) + _generated_pairs(16, 2)
    assert evaluate_many(pairs) == loop_evaluate_many(pairs)
    assert evaluate_many([]) == loop_evaluate_many([]) == MetricsReport(*[four_moments([])] * 3)


@pytest.mark.parametrize("change", ["half-mass", "negative", "double-mass"])
@pytest.mark.parametrize("side", ["pred", "truth"])
def test_collect_rejects_unnormalized_pair_as_loop(change, side):
    pairs = _generated_pairs(8, 3)
    pred, truth = pairs[1]
    ri, ci = np.argwhere(truth.data.sum(axis=(2, 3)) > 0)[-1]
    h = pred if side == "pred" else truth
    plane = h.data[ri, ci]
    if change == "half-mass":
        plane *= 0.5
    elif change == "double-mass":
        plane *= 2.0
    else:
        # one cell below zero, the plane still summing to 1
        plane.flat[plane.argmin()] -= 0.25
        plane.flat[plane.argmax()] += 0.25
    for fn in (_collect, lambda ps: [loop_collect(*pq) for pq in ps]):
        with pytest.raises(NotNormalizedError, match="non-negative and sum to 1"):
            fn(pairs)
