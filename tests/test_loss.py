"""Loss functions and the partition-function bound checker."""

import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklearn.loss import (
    check_bounds,
    multiclass_loss,
    ova_loss,
    sampled_multiclass_loss,
    softmax,
)


def test_softmax_known_values():
    np.testing.assert_array_equal(softmax(np.zeros(4)), np.full(4, 0.25))
    np.testing.assert_allclose(softmax(np.array([np.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_matches_extended_precision_reference():
    rng = np.random.default_rng(31)
    logits = rng.standard_normal((20, 9)) * 5
    wide = np.exp(logits.astype(np.longdouble))
    ref = (wide / wide.sum(axis=-1, keepdims=True)).astype(np.float64)
    np.testing.assert_allclose(softmax(logits), ref, atol=1e-12)


def test_softmax_is_stable_for_large_logits():
    p = softmax(np.array([1e4, 1e4 - 5.0, -1e4]))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-9
    assert p.min() >= 0.0


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
def test_softmax_shift_invariance(values, shift):
    logits = np.array(values)
    np.testing.assert_allclose(softmax(logits + shift), softmax(logits), atol=1e-12)
    assert abs(softmax(logits).sum() - 1.0) < 1e-9


def test_multiclass_uniform_logits():
    y = np.zeros((1, 4))
    y[0, 2] = 1.0
    lg = multiclass_loss(np.zeros((1, 4)), y)
    assert abs(lg.loss - math.log(4.0)) < 1e-12


def test_multiclass_degenerate_single_class():
    lg = multiclass_loss(np.array([[3.7]]), np.array([[1.0]]))
    assert lg.loss == 0.0
    assert not lg.d_logits.any()


def test_multiclass_gradient_rows_sum_to_zero_for_single_positive():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 10))
    y = np.zeros((6, 10))
    y[np.arange(6), rng.integers(0, 10, size=6)] = 1.0
    lg = multiclass_loss(logits, y)
    np.testing.assert_allclose(lg.d_logits.sum(axis=1), 0.0, atol=1e-12)


def finite_diff_wrt_logits(loss_fn, logits, h=1e-6):
    numeric = np.zeros_like(logits)
    it = np.nditer(logits, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = logits[idx]
        logits[idx] = saved + h
        up = loss_fn(logits)
        logits[idx] = saved - h
        down = loss_fn(logits)
        logits[idx] = saved
        numeric[idx] = (up - down) / (2 * h)
    return numeric


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


def test_multiclass_gradient_matches_finite_differences():
    rng = np.random.default_rng(40)
    logits = rng.standard_normal((5, 8))
    y = np.zeros((5, 8))
    for row in range(5):
        y[row, rng.choice(8, size=2, replace=False)] = 1.0
    lg = multiclass_loss(logits, y)
    numeric = finite_diff_wrt_logits(lambda l: multiclass_loss(l, y).loss, logits.copy())
    assert max_rel_err(lg.d_logits, numeric) < 1e-6


@pytest.mark.parametrize("positives", [1, 5])
def test_multiclass_f32_loss_is_float64_and_gradient_is_f32_softmax(positives):
    rng = np.random.default_rng(41)
    logits = (rng.standard_normal((64, 128)) * 4).astype(np.float32)
    y = np.zeros_like(logits)
    for row in range(64):
        y[row, rng.choice(128, size=positives, replace=False)] = 1
    lg = multiclass_loss(logits, y)
    expected = -(y * scipy.special.log_softmax(logits.astype(np.float64), axis=1)).sum() / 64
    assert abs(lg.loss - expected) <= 1e-12 * abs(expected)
    row_pos = y.sum(axis=1)
    d_expected = (row_pos[:, None] * softmax(logits).astype(np.float32) - y) / 64
    assert lg.d_logits.dtype == np.float32
    assert lg.d_logits.tobytes() == d_expected.tobytes()


def test_multiclass_rejects_rows_without_positives():
    y = np.zeros((2, 3))
    y[0, 1] = 1.0
    with pytest.raises(ValueError, match="row with zero positives"):
        multiclass_loss(np.zeros((2, 3)), y)


def test_ova_balanced_pair_at_zero():
    # one positive and one negative at logit 0, unit weights: 2*log(2)
    logits = np.zeros((2, 1))
    y = np.array([[1.0], [0.0]])
    lg = ova_loss(logits, y, n_total=2, n_pos=np.array([1]))
    assert abs(lg.loss - 2 * math.log(2.0)) < 1e-12


def test_ova_saturates_to_zero_loss():
    logits = np.full((3, 2), 40.0)
    y = np.ones((3, 2))
    lg = ova_loss(logits, y, n_total=4, n_pos=np.array([3, 3]))
    assert lg.loss < 1e-12


def test_ova_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    n, k = 6, 4
    y = np.zeros((n, k))
    for col in range(k):
        rows = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        y[rows, col] = 1.0
    n_pos = y.sum(axis=0)
    logits = rng.standard_normal((n, k))
    lg = ova_loss(logits, y, n_total=n, n_pos=n_pos)
    numeric = finite_diff_wrt_logits(lambda l: ova_loss(l, y, n, n_pos).loss, logits.copy())
    assert max_rel_err(lg.d_logits, numeric) < 1e-6


def test_ova_reduces_to_scaled_binary_cross_entropy():
    # balanced classes: both weights are 1/N_k, so the loss is plain BCE / N_k
    rng = np.random.default_rng(42)
    logits = rng.standard_normal((4, 3))
    y = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
    n_pos = y.sum(axis=0)
    lg = ova_loss(logits, y, n_total=4, n_pos=n_pos)
    sig = 1.0 / (1.0 + np.exp(-logits))
    bce = -(y * np.log(sig) + (1 - y) * np.log(1 - sig)).sum()
    assert abs(lg.loss - bce / 2.0) < 1e-9


def test_ova_rejects_degenerate_balance():
    y = np.ones((2, 1))
    for n_pos in (0, 3):  # no positive, or more positives than rows
        with pytest.raises(ValueError, match="degenerate class balance"):
            ova_loss(np.zeros((2, 1)), y, n_total=2, n_pos=np.array([n_pos]))
    # a class positive in every row has no negatives: only its positive terms count
    lg = ova_loss(np.zeros((2, 1)), y, n_total=2, n_pos=np.array([2]))
    assert lg.loss == math.log(2.0)
    assert np.isfinite(lg.d_logits).all()


def test_ova_gradient_with_an_all_positive_class_matches_finite_differences():
    rng = np.random.default_rng(43)
    n, k = 5, 3
    y = np.zeros((n, k))
    y[:, 0] = 1.0  # positive in every row
    y[[1, 3], 1] = 1.0
    y[2, 2] = 1.0
    n_pos = y.sum(axis=0)
    logits = rng.standard_normal((n, k))
    lg = ova_loss(logits, y, n_total=n, n_pos=n_pos)
    numeric = finite_diff_wrt_logits(lambda l: ova_loss(l, y, n, n_pos).loss, logits.copy())
    assert np.isfinite(lg.loss)
    assert max_rel_err(lg.d_logits, numeric) < 1e-6


@pytest.mark.parametrize(
    "dtype, batch, n_classes, scale",
    [
        (np.float64, 4, 6, 1.0),
        (np.float32, 4, 6, 1.0),
        (np.float32, 128, 20, 3.0),
        (np.float64, 1, 1, 1.0),
        (np.float32, 300, 60, 10.0),
        (np.float64, 17, 5, 1000.0),  # every non-max exp underflows to 0
    ],
    ids=["f64-4x6", "f32-4x6", "f32-128x20", "f64-1x1", "f32-300x60", "f64-17x5-underflow"],
)
def test_sampled_equals_full_when_subset_is_everything(dtype, batch, n_classes, scale):
    rng = np.random.default_rng(50)
    logits = (rng.standard_normal((batch, n_classes)) * scale).astype(dtype)
    positives = rng.integers(0, n_classes, size=batch)
    y = np.zeros((batch, n_classes), dtype=dtype)
    y[np.arange(batch), positives] = 1.0
    full = multiclass_loss(logits, y)
    sub = sampled_multiclass_loss(logits, positives)
    assert repr(sub.loss) == repr(full.loss)
    assert sub.loss == full.loss
    assert sub.d_logits.dtype == full.d_logits.dtype == dtype
    np.testing.assert_array_equal(sub.d_logits, full.d_logits)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_sampled_loss_never_exceeds_full_loss(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 12))
    m = int(rng.integers(2, k + 1))
    logits = rng.standard_normal(k) * 3
    positive = int(rng.integers(0, k))
    rest = np.setdiff1d(np.arange(k), [positive])
    subset = np.sort(np.append(rng.permutation(rest)[: m - 1], positive))

    y = np.zeros((1, k))
    y[0, positive] = 1.0
    full = multiclass_loss(logits[None, :], y).loss
    position = int(np.searchsorted(subset, positive))
    sub = sampled_multiclass_loss(logits[subset][None, :], np.array([position])).loss
    assert sub <= full + 1e-9


def test_sampled_gradient_matches_finite_differences():
    rng = np.random.default_rng(51)
    sub_logits = rng.standard_normal((4, 5))
    positions = rng.integers(0, 5, size=4)
    lg = sampled_multiclass_loss(sub_logits, positions)
    numeric = finite_diff_wrt_logits(
        lambda l: sampled_multiclass_loss(l, positions).loss, sub_logits.copy()
    )
    assert max_rel_err(lg.d_logits, numeric) < 1e-6


def test_sampled_requires_valid_positions():
    with pytest.raises(ValueError, match="one positive position per row"):
        sampled_multiclass_loss(np.zeros((2, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="positive not in subset"):
        sampled_multiclass_loss(np.zeros((2, 3)), np.array([0, 3]))


def test_check_bounds_full_subset_is_exact():
    logits = np.random.default_rng(60).standard_normal(12)
    report = check_bounds(logits, subset_size=12, trials=200, seed=0)
    assert abs(report.mc_mean - report.log_z) < 1e-12
    assert report.mc_stderr == 0.0
    assert report.upper_holds and report.lower_holds


def test_check_bounds_uniform_logits_are_analytic():
    k = 16
    for m in (1, 4, 8, 16):
        report = check_bounds(np.full(k, 2.5), subset_size=m, trials=500, seed=1)
        # all shifted scores are exactly 1, so every subset sums to m
        assert abs(report.mc_mean - math.log(m)) < 1e-12
        assert abs(report.log_z - math.log(k)) < 1e-12
        assert abs((report.log_z - report.mc_mean) - math.log(k / m)) < 1e-12
        assert abs(report.lower_bound - math.log(m)) < 1e-12
        assert report.upper_holds and report.lower_holds
        assert report.shift == -2.5


def test_check_bounds_matches_exhaustive_enumeration():
    rng = np.random.default_rng(61)
    logits = rng.standard_normal(10) * 2
    report = check_bounds(logits, subset_size=3, trials=50_000, seed=7)

    shifted = logits - logits.min()
    s = np.exp(shifted)
    positive = 0
    rest = [i for i in range(10) if i != positive]
    subset_logs = [
        math.log(s[positive] + s[i] + s[j]) for i, j in itertools.combinations(rest, 2)
    ]
    exact_mean = float(np.mean(subset_logs))
    assert abs(report.mc_mean - exact_mean) <= 3 * report.mc_stderr

    # the Markov lower bound also holds for the exact enumeration
    z = s.sum()
    p_true = np.mean(
        [(s[positive] + s[i] + s[j]) / 3 >= z / 10 for i, j in itertools.combinations(rest, 2)]
    )
    assert exact_mean >= p_true * (math.log(3 / 10) + math.log(z)) - 1e-12
    assert exact_mean <= math.log(z) + 1e-12


def test_check_bounds_respects_positive_index():
    logits = np.array([0.0, 5.0, -1.0, 2.0])
    report = check_bounds(logits, subset_size=1, trials=300, seed=3, positive_index=1)
    # subset {positive} only: log s_1 with shift 1
    assert abs(report.mc_mean - 6.0) < 1e-12
    assert report.mc_stderr == 0.0


def test_check_bounds_input_validation():
    logits = np.zeros(4)
    with pytest.raises(ValueError, match="subset_size exceeds K"):
        check_bounds(logits, subset_size=5, trials=200, seed=0)
    with pytest.raises(ValueError, match="trials must be at least 100"):
        check_bounds(logits, subset_size=2, trials=50, seed=0)
    with pytest.raises(ValueError, match="positive_index out of range"):
        check_bounds(logits, subset_size=2, trials=200, seed=0, positive_index=4)
