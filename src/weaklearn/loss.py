"""Multiclass and one-vs-all losses, the sampled-target variant, and bound checks.

The sampled-target loss computes the softmax partition over only the classes
present in a batch. check_bounds verifies by Monte Carlo that the expected
log of that partial sum never overestimates the true log partition, and that
it respects the Markov-style lower bound once scores are shifted to be >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


@dataclass
class LossGrad:
    loss: float
    d_logits: np.ndarray


@dataclass
class BoundReport:
    """Monte-Carlo verdict on the two partition bounds for one logits vector."""

    k: int
    subset_size: int
    trials: int
    mc_mean: float  # estimate of E[log sum_{c in C} s_c] after the shift
    mc_stderr: float
    log_z: float  # exact log partition after the shift
    lower_bound: float  # p_hat * (log(|C|/K) + log Z)
    upper_holds: bool
    lower_holds: bool
    shift: float


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 logits shifted by their row max, their exp, and the exp's row sums."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    _, e, total = _shifted_exp(logits)
    return e / total


def multiclass_loss(logits: np.ndarray, y: np.ndarray) -> LossGrad:
    """Mean over the batch of the negative log-probability summed over positives.

    y is a {0,1} indicator matrix shaped like logits; each row needs at
    least one positive. The loss is float64; d_logits, in the logits' dtype,
    is its exact gradient: ((sum_k y_k) * softmax(row) - y) / batch.
    """
    logits = np.asarray(logits)
    y = np.asarray(y)
    if logits.ndim != 2 or y.shape != logits.shape:
        raise ValueError("logits and y must be matching 2-d arrays")
    row_pos = y.sum(axis=1)
    if np.any(row_pos < 1):
        raise ValueError("row with zero positives")
    batch = logits.shape[0]
    z, e, total = _shifted_exp(logits)
    loss = float(-(y * (z - np.log(total))).sum() / batch)
    p = (e / total).astype(logits.dtype, copy=False)
    d_logits = (row_pos[:, None] * p - y) / batch
    return LossGrad(loss=loss, d_logits=d_logits.astype(logits.dtype, copy=False))


def sampled_multiclass_loss(subset_logits: np.ndarray, positive_position: np.ndarray) -> LossGrad:
    """Multiclass loss over the batch-present class columns only.

    positive_position[i] indexes the single positive of row i within the
    subset; the partition runs over the subset, never the full dictionary.
    Loss and d_logits equal multiclass_loss with a one-hot y, bit for bit.
    """
    subset_logits = np.asarray(subset_logits)
    pos = np.asarray(positive_position, dtype=np.int64)
    if pos.shape != (subset_logits.shape[0],):
        raise ValueError("one positive position per row required")
    if pos.size and (pos.min() < 0 or pos.max() >= subset_logits.shape[1]):
        raise ValueError("positive not in subset")
    batch = subset_logits.shape[0]
    rows = np.arange(batch)
    z, e, total = _shifted_exp(subset_logits)
    # -0.0 is what multiclass_loss's 0 * (z - log total) gives off the positives,
    # so the sum below is bitwise the same
    terms = np.full(z.shape, -0.0)
    terms[rows, pos] = z[rows, pos] - np.log(total)[:, 0]
    p = (e / total).astype(subset_logits.dtype, copy=False)
    p[rows, pos] -= 1
    return LossGrad(loss=float(-terms.sum() / batch), d_logits=p / batch)


def ova_loss(logits: np.ndarray, y: np.ndarray, n_total: int, n_pos: np.ndarray) -> LossGrad:
    """Class-rebalanced one-vs-all logistic loss (negated log-likelihood).

    Positive terms weigh y_nk / N_k, negative terms (1 - y_nk) / max(N - N_k, 1),
    with the sigmoid applied to each per-class score. Summed over the given
    rows, not averaged. A class positive in every row (N_k = N) has no
    negative terms, so its empty negative sum weighs 0.
    """
    logits = np.asarray(logits)
    y = np.asarray(y, dtype=logits.dtype)
    n_pos = np.asarray(n_pos, dtype=np.float64)
    if logits.ndim != 2 or y.shape != logits.shape or n_pos.shape != (logits.shape[1],):
        raise ValueError("shape mismatch")
    if np.any(n_pos < 1) or np.any(n_pos > n_total):
        raise ValueError("degenerate class balance")
    pos_w = y / n_pos
    neg_w = (1.0 - y) / np.maximum(n_total - n_pos, 1)
    # -log sigma(l) = softplus(-l); -log(1 - sigma(l)) = softplus(l)
    softplus_neg = np.logaddexp(0.0, -logits)
    softplus_pos = np.logaddexp(0.0, logits)
    loss = float((pos_w * softplus_neg + neg_w * softplus_pos).sum())
    sig = expit(logits.astype(np.float64))
    d_logits = pos_w * (sig - 1.0) + neg_w * sig
    return LossGrad(loss=loss, d_logits=d_logits.astype(logits.dtype, copy=False))


def check_bounds(
    logits: np.ndarray,
    subset_size: int,
    trials: int,
    seed,
    positive_index: int = 0,
) -> BoundReport:
    """Monte-Carlo check of both partition bounds for one score vector.

    Shifts logits so the minimum is exactly 0 (all scores >= 1), then draws
    `trials` uniform subsets of the requested size with the positive class
    always included, as in training. Both inequalities get 3-sigma slack;
    the probability in the lower bound is estimated from the same trials.
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    k = logits.size
    if not 1 <= subset_size <= k:
        raise ValueError("subset_size exceeds K")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    if not 0 <= positive_index < k:
        raise ValueError("positive_index out of range")

    shift = -float(logits.min())
    s = np.exp(logits + shift)
    z = float(s.sum())
    log_z = float(np.log(z))

    rng = np.random.default_rng(seed)
    rest = np.delete(np.arange(k), positive_index)
    m = subset_size
    if m == k:
        # the subset is always the full class set; nothing is sampled
        mc_mean, mc_stderr, p_hat = log_z, 0.0, 1.0
    else:
        if m == 1:
            sums = np.full(trials, s[positive_index])
        else:
            # uniform (m-1)-subsets of the non-positive classes via random permutation
            order = np.argsort(rng.random((trials, k - 1)), axis=1)[:, : m - 1]
            sums = s[positive_index] + s[rest][order].sum(axis=1)
        mc = np.log(sums)
        mc_mean = float(mc.mean())
        mc_stderr = float(mc.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        p_hat = float((sums / m >= z / k).mean())
    lower = p_hat * (np.log(m / k) + log_z)
    return BoundReport(
        k=k,
        subset_size=m,
        trials=trials,
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        log_z=log_z,
        lower_bound=float(lower),
        upper_holds=bool(mc_mean <= log_z + 3 * mc_stderr),
        lower_holds=bool(mc_mean >= lower - 3 * mc_stderr),
        shift=shift,
    )
