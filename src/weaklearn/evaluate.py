"""Evaluation protocols: precision@k, linear probes, and embedding benchmarks.

The output-matrix columns double as word embeddings, so the module also
scores analogy questions, similarity rank correlation, and bilingual word
matching, plus a CSV/JSON dump for external plotting.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import rankdata

from .data import Dataset, stable_fraction
from .model import ModelParams, forward, score_subset
from .textpipe import Dictionary


@dataclass
class EvalReport:
    metric: str
    value: float
    k: int | None
    n_items: int
    n_skipped: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class ProbeModel:
    """A fitted probe; it predicts only the classes present in its fit rows."""

    classes: np.ndarray  # (C,) the labels of the fit rows, unique and ascending
    weights: np.ndarray  # (E, C), column c scores classes[c]
    bias: np.ndarray  # (C,)
    lam: float  # regularization strength of the fit
    iterations: int  # trust-region Newton iterations of the fit
    grad_norm: float  # gradient 2-norm at the returned weights


_ROW_CHUNK = 512  # dataset rows per forward in the evals


def _embed_chunks(params: ModelParams, dataset: Dataset):
    """Yield (start row, embeddings) for consecutive _ROW_CHUNK-row chunks of the dataset."""
    for start in range(0, len(dataset), _ROW_CHUNK):
        e, _ = forward(params, dataset.images[start : start + _ROW_CHUNK])
        yield start, e


def _label_ranks(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Position of scores[i, labels[i]] in row i by descending score, ties by ascending index.

    rank = #{j : s_j > s_l} + #{j < l : s_j == s_l}; a NaN score ranks after
    every non-NaN one and after the NaNs at smaller indices, as in the
    stable argsort of -scores. One comparison pass per row, no sort.
    """
    value = scores[np.arange(len(labels)), labels][:, None]
    before = np.arange(scores.shape[1]) < labels[:, None]
    ranks = np.count_nonzero(scores > value, axis=1)
    ranks += np.count_nonzero((scores == value) & before, axis=1)
    nan = np.isnan(value[:, 0])
    if nan.any():
        isnan = np.isnan(scores[nan])
        ranks[nan] = np.count_nonzero(~isnan, axis=1) + np.count_nonzero(isnan & before[nan], axis=1)
    return ranks


def _kth_largest(scores: np.ndarray, k: int, work: np.ndarray | None = None) -> np.ndarray:
    """Each row's k-th largest score (1 <= k <= row length), NaN ranking last.

    One partition of a negated copy: NaN sorts after every number, so it
    ranks last in descending score order. scores itself is not changed.
    work, if given, has at least scores' rows and its columns and dtype;
    its leading rows take the negated copy in place of a fresh array.
    """
    neg = np.negative(scores, out=None if work is None else work[: len(scores)])
    neg.partition(k - 1, axis=1)
    return -neg[:, k - 1]


def _top_k_hits(
    scores: np.ndarray, rows: np.ndarray, labels: np.ndarray, k: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Whether scores[rows[i], labels[i]] falls in its row's top k, in the _label_ranks order.

    A label scoring above its row's k-th largest score is a hit and one below
    it a miss. Only a label equal to that cut, or with NaN on either side,
    is ranked exactly by _label_ranks, on its own row. For k >= K every
    label is a hit. work is _kth_largest's workspace.
    """
    if k >= scores.shape[1]:
        return np.ones(labels.size, dtype=bool)
    value = scores[rows, labels]
    cut = _kth_largest(scores, k, work)[rows]
    hit = value > cut
    tied = ~(hit | (value < cut))
    hit[tied] = _label_ranks(scores[rows[tied]], labels[tied]) < k
    return hit


def precision_at_k(params: ModelParams, dataset: Dataset, k: int) -> EvalReport:
    """Mean over examples of |top-k predictions ∩ labels| / k.

    Top k is the _label_ranks order, but no row is sorted: one partition per
    row finds its k-th largest score, and each label is compared with it
    (_top_k_hits). Rows are scored and ranked _ROW_CHUNK (512) at a time, so
    memory is two min(n, 512) x K chunk buffers per call, the scores and the
    partition's workspace, each reused by every chunk. Per-row values are
    summed in dataset order.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not len(dataset):
        raise ValueError("empty dataset")
    if dataset.label_flat.max() >= params.k:
        raise ValueError(f"label outside the {params.k} scored classes")
    offsets, flat = dataset.label_offsets, dataset.label_flat
    buf = np.empty((min(len(dataset), _ROW_CHUNK), params.k), dtype=params.config.np_dtype)
    work = np.empty_like(buf)
    total = 0.0
    for start, e in _embed_chunks(params, dataset):
        scores = score_subset(params.output_weights, e, out=buf[: len(e)])
        chunk = offsets[start : start + len(e) + 1]
        rows = np.repeat(np.arange(len(e)), np.diff(chunk))
        hits = _top_k_hits(scores, rows, flat[chunk[0] : chunk[-1]], k, work)
        for count in np.bincount(rows[hits], minlength=len(e)).tolist():
            total += count / k
    return EvalReport(
        metric="precision_at_k",
        value=total / len(dataset),
        k=k,
        n_items=len(dataset),
        n_skipped=0,
    )


def extract_features(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Penultimate representation f(x; theta) per example, shape (n, E)."""
    return np.concatenate([e for _, e in _embed_chunks(params, dataset)], axis=0)


_NEWTON_MAX_ITERATIONS = 200  # the conv-k20 probe fits converge in 20-30


def _multinomial_objective(xb: np.ndarray, labels: np.ndarray, lam: float):
    """(fun, hessp) of mean cross-entropy + lam/2 * ||W||^2 over flat V = [W; b], shape (E+1, C).

    xb is the features with a column of ones appended, so the last row of V
    is the bias, which is not penalized. fun(v) returns the objective and
    its gradient. hessp(v, d) returns Xb^T (P * (U - rowsum(P * U))) / n +
    lam * d_W with U = Xb d and P the softmax at v; it reuses P from fun's
    last call only when v equals that call's point (after a rejected step
    the trust region asks for products at the old point again).
    """
    n, rows = len(xb), np.arange(len(xb))
    last = {}

    def fun(flat):
        v = flat.reshape(xb.shape[1], -1)
        z = xb @ v
        z -= z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        last.update(v=flat.copy(), p=np.exp(log_p))
        diff = last["p"].copy()
        diff[rows, labels] -= 1.0
        grad = xb.T @ diff / n
        grad[:-1] += lam * v[:-1]
        return -log_p[rows, labels].mean() + 0.5 * lam * float((v[:-1] ** 2).sum()), grad.ravel()

    def hessp(flat, direction):
        if not np.array_equal(flat, last.get("v")):
            fun(flat)
        p, d = last["p"], direction.reshape(xb.shape[1], -1)
        pu = p * (xb @ d)
        hv = xb.T @ (pu - p * pu.sum(axis=1, keepdims=True)) / n
        hv[:-1] += lam * d[:-1]
        return hv.ravel()

    return fun, hessp


def _fit_multinomial(x: np.ndarray, labels: np.ndarray, lam: float) -> ProbeModel:
    """L2-regularized softmax regression, solved to its optimum by trust-region Newton.

    Fits one column per class present in labels and no other: a class
    without rows has no optimum, as its unpenalized bias falls toward -inf.
    Raises ValueError on fewer than two classes. Minimizes mean
    cross-entropy + lam/2 * ||W||^2 (bias unpenalized) from W = 0, b = 0
    with scipy's truncated-CG trust-region Newton method (Steihaug 1983;
    Lin, Weng & Keerthi 2008) and exact Hessian-vector products. It stops
    at gradient 2-norm < 1e-8 or after _NEWTON_MAX_ITERATIONS iterations,
    and raises ValueError if the norm is then above 1e-6. lam must be
    finite and > 0: without the penalty the objective has no minimizer on
    separable features.
    """
    classes, dense = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("single-class input")
    n, e = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    fun, hessp = _multinomial_objective(xb, dense, lam)
    result = minimize(
        fun,
        np.zeros((e + 1) * classes.size),
        jac=True,
        hessp=hessp,
        method="trust-ncg",
        options={"gtol": 1e-8, "maxiter": _NEWTON_MAX_ITERATIONS},
    )
    grad_norm = float(np.linalg.norm(result.jac))
    if not grad_norm <= 1e-6:
        raise ValueError(
            f"probe fit at lambda {lam:g} stopped after {result.nit} iterations at gradient norm {grad_norm:.3g}"
        )
    v = result.x.reshape(e + 1, classes.size)
    return ProbeModel(classes, weights=v[:-1], bias=v[-1], lam=lam, iterations=int(result.nit), grad_norm=grad_norm)


def linear_probe(
    features: np.ndarray,
    labels: np.ndarray,
    lambda_grid: np.ndarray | None = None,
    seed: int = 0,
) -> tuple[ProbeModel, EvalReport]:
    """Probe frozen features with an L2-regularized multinomial logistic regressor.

    Rows are split by stable hash into a held-out test fold (20%) and an
    80/20 train/validation split of the remainder; the seed salts the hash,
    so different seeds give different folds. Each lambda in the grid (every
    one finite and > 0; default 1e-4 .. 1e2, 7 log-spaced values) is fit to
    its optimum on the train split and scored by validation accuracy; the
    best lambda (ties to the smaller one) is refit on train+validation, and
    its test accuracy is reported. The returned ProbeModel is the refit.

    Each fit covers only the classes present in its own rows: the train
    split for selection, train+validation for the refit. A validation or
    test row of a class its fit never saw counts as a miss.
    """
    grid = np.logspace(-4, 2, 7) if lambda_grid is None else np.asarray(lambda_grid, dtype=np.float64)
    if grid.ndim != 1 or not grid.size:
        raise ValueError("lambda grid must be a non-empty list of values")
    bad = grid[~(np.isfinite(grid) & (grid > 0))]
    if bad.size:
        raise ValueError(f"lambda {bad[0]:g} has no optimum: every lambda must be finite and > 0")
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ValueError("features and labels disagree")
    if np.unique(labels).size < 2:
        raise ValueError("single-class input")

    u_test = np.array([stable_fraction(f"row{i}", salt=f"probe-test-{seed}") for i in range(len(x))])
    test_mask = u_test >= 0.8
    rest = np.flatnonzero(~test_mask)
    u_val = np.array([stable_fraction(f"row{i}", salt=f"probe-val-{seed}") for i in rest])
    val_rows = rest[u_val >= 0.8]
    train_rows = rest[u_val < 0.8]
    test_rows = np.flatnonzero(test_mask)
    if not (len(train_rows) and len(val_rows) and len(test_rows)):
        raise ValueError("too few rows to split")

    best_lam, best_acc = None, -1.0
    for lam in grid.tolist():
        fit = _fit_multinomial(x[train_rows], labels[train_rows], lam)
        pred = fit.classes[np.argmax(x[val_rows] @ fit.weights + fit.bias, axis=1)]
        acc = float((pred == labels[val_rows]).mean())
        if acc > best_acc:
            best_acc, best_lam = acc, lam

    fit_rows = np.concatenate([train_rows, val_rows])
    probe = _fit_multinomial(x[fit_rows], labels[fit_rows], best_lam)
    pred = probe.classes[np.argmax(x[test_rows] @ probe.weights + probe.bias, axis=1)]
    test_acc = float((pred == labels[test_rows]).mean())
    report = EvalReport(
        metric="probe_accuracy",
        value=test_acc,
        k=None,
        n_items=len(test_rows),
        n_skipped=0,
    )
    return probe, report


def _word_rows(w_out: np.ndarray, dictionary: Dictionary, rows: list, n_words: int):
    """(w, idx, kept): the word evals' float64 W and the dictionary indices of their rows.

    Refuses a W whose column count is not dictionary.k. w is a C-order
    float64 copy of w_out: _unit_columns' norms sum row by row on a C-order
    array and pairwise on a column-major one, so any layout of W gives the
    same bits. The first n_words words of each row are looked up in one pass;
    kept holds the positions of the rows whose words all are in the
    dictionary and idx, shape (len(kept), n_words), their indices.
    """
    w = np.asarray(w_out, dtype=np.float64, order="C")
    if w.shape[1] != dictionary.k:
        raise ValueError(f"embedding count {w.shape[1]} differs from dictionary size {dictionary.k}")
    get = dictionary.word_to_index.get
    idx = np.array([get(word, -1) for row in rows for word in row[:n_words]], dtype=np.int64)
    idx = idx.reshape(len(rows), n_words)
    kept = np.flatnonzero((idx >= 0).all(axis=1))
    return w, idx[kept], kept


def _unit_columns(w_out: np.ndarray) -> np.ndarray:
    """Columns scaled to unit norm; zero columns stay zero."""
    norms = np.linalg.norm(w_out, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return w_out / safe


_QUERY_CHUNK = 64  # query columns per product: 64 x K float64 similarities at a time


def _column_sims(queries: np.ndarray, candidates: np.ndarray):
    """Yield (start, queries[:, start : start + 64].T @ candidates) over all query columns."""
    for start in range(0, queries.shape[1], _QUERY_CHUNK):
        yield start, queries[:, start : start + _QUERY_CHUNK].T @ candidates


def analogy_accuracy(
    w_out: np.ndarray, questions: list[tuple[str, str, str, str]], dictionary: Dictionary
) -> EvalReport:
    """Accuracy of predicting D from unit(w_B) - unit(w_A) + unit(w_C) over (a, b, c, d) rows.

    The argmax-cosine search excludes A, B and C (first max on ties);
    questions with any out-of-dictionary word are skipped and counted.
    """
    w, idx, _ = _word_rows(w_out, dictionary, questions, 4)
    unit = _unit_columns(w)
    del w  # held through the search, the float64 copy would add 8·E·K bytes to its peak
    if not unit.any(axis=0)[idx[:, :3]].all():
        raise ValueError("zero-norm embedding column")
    targets = unit[:, idx[:, 1]] - unit[:, idx[:, 0]] + unit[:, idx[:, 2]]
    correct = 0
    for start, sims in _column_sims(targets, unit):
        chunk = idx[start : start + len(sims)]
        sims[np.arange(len(sims))[:, None], chunk[:, :3]] = -np.inf
        correct += int(np.count_nonzero(sims.argmax(axis=1) == chunk[:, 3]))
    value = correct / len(idx) if len(idx) else 0.0
    return EvalReport(
        metric="analogy_accuracy", value=value, k=None, n_items=len(idx), n_skipped=len(questions) - len(idx)
    )


def spearman_similarity(
    w_out: np.ndarray, pairs: list[tuple[str, str, float]], dictionary: Dictionary
) -> EvalReport:
    """Spearman rank correlation of (w1, w2, rating) rows' model cosines (0 at a zero column) and ratings."""
    w, idx, kept = _word_rows(w_out, dictionary, pairs, 2)
    if len(idx) < 2:
        raise ValueError("fewer than 2 scorable pairs")
    unit = _unit_columns(w)
    cosines = [float(unit[:, i] @ unit[:, j]) for i, j in idx.tolist()]
    rank_c = rankdata(cosines, method="average")
    rank_r = rankdata([pairs[r][2] for r in kept.tolist()], method="average")
    if np.all(rank_c == rank_c[0]) or np.all(rank_r == rank_r[0]):
        rho = 0.0  # a constant sequence carries no ordering signal
    else:
        rho = float(np.corrcoef(rank_c, rank_r)[0, 1])
    return EvalReport(
        metric="spearman_similarity", value=rho, k=None, n_items=len(idx), n_skipped=len(pairs) - len(idx)
    )


def translation_precision(
    w_out: np.ndarray,
    pairs: list[tuple[str, str]],
    dictionary: Dictionary,
    direction: str = "forward",
    k: int = 1,
) -> EvalReport:
    """Precision@k of cross-language matching by cosine ranking over (w1, w2) rows.

    direction "forward" queries w1 against the set of w2 entries;
    "reverse" swaps the roles. Candidates are exactly the target-side
    words of the scorable pairs; ties rank by ascending dictionary index.
    Hits are decided as in precision_at_k, by each query's k-th largest
    similarity (_top_k_hits), 64 queries at a time, so memory is bounded by
    a few 64 x candidates similarity arrays.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be forward or reverse")
    if k < 1:
        raise ValueError("k must be positive")
    w, idx, _ = _word_rows(w_out, dictionary, pairs, 2)
    if not len(idx):
        raise ValueError("empty candidate set")
    queries, targets = idx.T if direction == "forward" else idx.T[::-1]
    candidates, positions = np.unique(targets, return_inverse=True)
    cand_cols = _unit_columns(w[:, candidates])
    hits = 0
    for start, sims in _column_sims(_unit_columns(w[:, queries]), cand_cols):
        rows = np.arange(len(sims))
        hits += int(np.count_nonzero(_top_k_hits(sims, rows, positions[start : start + len(sims)], k)))
    n = len(idx)
    return EvalReport(
        metric=f"translation_precision_{direction}", value=hits / n, k=k, n_items=n, n_skipped=len(pairs) - n
    )


def dump_embeddings(
    w_out: np.ndarray,
    dictionary: Dictionary,
    path: str,
    neighbors_path: str | None = None,
    n_neighbors: int = 10,
) -> str:
    """Write word,value...,value CSV rows in dictionary order plus neighbor JSON.

    Returns the neighbors path (derived from `path` when not given). The
    neighbor lists hold the top cosine neighbors of each word, self
    excluded, ties by ascending index, as a stable argsort of each row
    would give them; 64 words are scored at a time, and only the entries
    at or above each row's n-th largest cosine (_kth_largest) are sorted.
    """
    w, _, _ = _word_rows(w_out, dictionary, [], 0)
    if neighbors_path is None:
        neighbors_path = os.path.splitext(path)[0] + "_neighbors.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for j, word in enumerate(dictionary.words):
            writer.writerow([word] + [f"{v:.8e}" for v in w[:, j]])
    unit = _unit_columns(w)
    n_take = max(0, min(n_neighbors, dictionary.k - 1))
    neighbors = {}
    for start, sims in _column_sims(unit, unit):
        rows = np.arange(len(sims))
        sims[rows, start + rows] = -np.inf
        cuts = _kth_largest(sims, max(n_take, 1))
        for j, (row, cut) in enumerate(zip(sims, cuts), start):
            candidates = np.flatnonzero(~(row < cut))  # keeps every tie at the cut, and NaNs
            top = candidates[np.argsort(-row[candidates], kind="stable")[:n_take]]
            neighbors[dictionary.words[j]] = [dictionary.words[t] for t in top.tolist()]
    with open(neighbors_path, "w", encoding="utf-8") as fh:
        json.dump(neighbors, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return neighbors_path
