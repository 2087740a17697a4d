"""Ranking metrics, linear probe, and embedding-space evaluations."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from util import score_examples, scorer_params
from weaklearn import evaluate
from weaklearn.evaluate import (
    analogy_accuracy,
    dump_embeddings,
    extract_features,
    linear_probe,
    precision_at_k,
    spearman_similarity,
    translation_precision,
)
from weaklearn.data import Dataset, stable_fraction
from weaklearn.model import ModelConfig, forward, init_params, score_subset
from weaklearn.textpipe import Dictionary


def make_dictionary(words):
    return Dictionary(words=list(words), counts=np.arange(len(words), 0, -1), stop_count=0)


def brute_force_top_k(scores, k):
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k]


def test_precision_at_k_known_cases():
    # one correct label ranked first
    scores = np.zeros((1, 20), dtype=np.float32)
    scores[0, 7] = 1.0
    report = precision_at_k(scorer_params(20), score_examples(scores, [[7]]), k=1)
    assert report.value == 1.0
    assert (report.n_items, report.n_skipped) == (1, 0)

    # top-2 = {0, 19}, labels = {0, 1}: one of two slots correct
    scores = np.zeros((1, 20), dtype=np.float32)
    scores[0, 0], scores[0, 19], scores[0, 1] = 1.0, 0.9, 0.5
    report = precision_at_k(scorer_params(20), score_examples(scores, [[0, 1]]), k=2)
    assert report.value == 0.5


def test_precision_at_k_ties_break_by_ascending_index():
    scores = np.full((1, 6), 0.5, dtype=np.float32)
    dataset = score_examples(scores, [[1]])
    assert precision_at_k(scorer_params(6), dataset, k=2).value == 0.5
    assert precision_at_k(scorer_params(6), dataset, k=1).value == 0.0


def test_precision_at_k_matches_brute_force():
    rng = np.random.default_rng(21)
    n, k_classes = 40, 13
    scores = rng.uniform(0.1, 1.0, size=(n, k_classes)).astype(np.float32)
    scores[5] = scores[4]  # duplicated rows exercise tie handling
    labels = [sorted(rng.choice(k_classes, size=rng.integers(1, 4), replace=False).tolist()) for _ in range(n)]
    dataset = score_examples(scores, labels)
    params = scorer_params(k_classes)
    for k in (1, 3, 5):
        expected = np.mean(
            [len(set(brute_force_top_k(scores[i], k)) & set(labels[i])) / k for i in range(n)]
        )
        assert math.isclose(precision_at_k(params, dataset, k=k).value, expected, rel_tol=0, abs_tol=1e-12)


def test_precision_at_k_validation():
    params = scorer_params(4)
    dataset = score_examples(np.ones((1, 4), dtype=np.float32), [[0]])
    with pytest.raises(ValueError, match="k must be positive"):
        precision_at_k(params, dataset, k=0)
    with pytest.raises(ValueError, match="empty dataset"):
        precision_at_k(params, score_examples(np.ones((0, 4)), []), k=1)
    with pytest.raises(ValueError, match="outside the 4 scored classes"):
        precision_at_k(params, score_examples(np.ones((1, 4)), [[1, 4]]), k=1)


def test_precision_at_k_scores_w_without_copying_it():
    """Memory is bounded by the chunk's scores, not by a second copy of W."""
    cfg = ModelConfig(input_hwc=(1, 1, 4), layers=[("fc", 64)], embed_dim=64)
    params = init_params(cfg, k=50_000, seed=0)
    rng = np.random.default_rng(3)
    images = rng.standard_normal((8, 1, 1, 4)).astype(np.float32)
    dataset = Dataset.from_labels([f"ex{i}" for i in range(8)], images, [[i, 49_990 + i] for i in range(8)])
    tracemalloc.start()
    try:
        precision_at_k(params, dataset, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.output_weights.nbytes / 2


def test_precision_at_k_scores_every_chunk_into_one_buffer(monkeypatch):
    """Three chunks (4, 4 and 2 rows) score into one buffer and partition in one workspace."""
    cfg = ModelConfig(input_hwc=(2, 2, 1), layers=[("fc", 8)], embed_dim=8)
    params = init_params(cfg, k=30, seed=4)
    rng = np.random.default_rng(8)
    images = rng.standard_normal((10, 2, 2, 1)).astype(np.float32)
    labels = [np.sort(rng.choice(30, 3, replace=False)) for _ in range(10)]
    dataset = Dataset.from_labels([f"ex{i}" for i in range(10)], images, labels)
    expected = precision_at_k(params, dataset, k=5).value
    kth_largest = evaluate._kth_largest
    scored, works = [], []

    def recording_score_subset(w_cols, e, out=None):
        scored.append(score_subset(w_cols, e, out=out))
        return scored[-1]

    def recording_kth_largest(scores, k, work=None):
        works.append(work)
        return kth_largest(scores, k, work)

    monkeypatch.setattr(evaluate, "_ROW_CHUNK", 4)
    monkeypatch.setattr(evaluate, "score_subset", recording_score_subset)
    monkeypatch.setattr(evaluate, "_kth_largest", recording_kth_largest)
    assert precision_at_k(params, dataset, k=5).value == expected
    assert [len(s) for s in scored] == [4, 4, 2] and len(works) == 3
    assert all(np.shares_memory(scored[0], s) for s in scored[1:])
    assert all(np.shares_memory(works[0], w) for w in works[1:])
    assert not np.shares_memory(scored[0], works[0])


def test_w_layout_changes_no_eval_bits(tmp_path):
    """precision@k and the word evals give equal reports and files for a C-order and a column-major W.

    Columns 0 and 2 are e0 and column 1 is e0 plus 1e-8 in every other row
    (columns 3 and 4 are e1, an analogy offset of zero). A row-by-row sum of
    squares drops those 1e-8 squares and a column-wise pairwise sum keeps
    them, so column 1's norm, and with it every tie at cosine 1 against e0,
    depends on the layout of the float64 copy the evals normalize.
    """
    e_dim, k = 16, 40
    rng = np.random.default_rng(11)
    w = rng.standard_normal((e_dim, k)).astype(np.float32)
    w[:, 0] = w[:, 2] = np.eye(e_dim)[0]
    w[:, 1] = 1e-8
    w[0, 1] = 1.0
    w[:, 3] = w[:, 4] = np.eye(e_dim)[1]
    words = [f"w{j}" for j in range(k)]
    dictionary = make_dictionary(words)
    questions = [("w3", "w4", "w0", "w1")]
    questions += [tuple(rng.choice(words, 4, replace=False)) for _ in range(20)]
    sim_pairs = [("w0", "w2", 1.0), ("w0", "w1", 2.0), ("w0", "w3", 0.0)]
    sim_pairs += [(*rng.choice(words, 2, replace=False), float(r)) for r in rng.random(20)]
    trans_pairs = [("w0", "w1"), ("w5", "w2")]
    trans_pairs += [tuple(rng.choice(words, 2, replace=False)) for _ in range(20)]
    cfg = ModelConfig(input_hwc=(2, 2, 1), layers=[("fc", e_dim)], embed_dim=e_dim)
    images = rng.standard_normal((600, 2, 2, 1)).astype(np.float32)
    labels = [np.sort(rng.choice(k, 3, replace=False)) for _ in range(600)]
    dataset = Dataset.from_labels([f"ex{i}" for i in range(600)], images, labels)
    results = []
    for order in "CF":
        w_out = np.asarray(w, order=order)
        params = init_params(cfg, k, seed=1)
        params.output_weights = w_out
        reports = [precision_at_k(params, dataset, k=n) for n in (1, 10)]
        reports += [analogy_accuracy(w_out, questions, dictionary), spearman_similarity(w_out, sim_pairs, dictionary)]
        reports += [translation_precision(w_out, trans_pairs, dictionary, direction=d, k=n)
                    for d in ("forward", "reverse") for n in (1, 3)]
        csv_path = tmp_path / f"{order}.csv"
        neighbors_path = dump_embeddings(w_out, dictionary, str(csv_path), n_neighbors=3)
        with open(neighbors_path, "rb") as fh:
            results.append(([r.to_json() for r in reports], csv_path.read_bytes(), fh.read()))
    assert results[0] == results[1]


# Scores drawn from few values, so ties are common, including -0.0 == 0.0.
_TIE_VALUES = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan], dtype=np.float32)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 12))
def test_precision_at_k_equals_stable_argsort_oracle(seed, n_classes):
    """Raw scores (NaN, +-inf, -0.0, heavy ties) across 512-row chunk boundaries."""
    rng = np.random.default_rng(seed)
    n = 1025
    scores = rng.choice(_TIE_VALUES, size=(n, n_classes))
    labels = [rng.choice(n_classes, size=rng.integers(1, n_classes + 1), replace=False) for _ in range(n)]
    dataset = score_examples(scores, labels)
    order = np.argsort(-scores, axis=1, kind="stable")
    with pytest.MonkeyPatch.context() as mp:
        # score rows are the images themselves, unclipped by any layer
        mp.setattr(evaluate, "forward", lambda params, images: (images.reshape(len(images), -1), None))
        mp.setattr(evaluate, "score_subset", lambda w_cols, e, out=None: e)
        for k in (1, n_classes - 1, n_classes, n_classes + 3):
            expected = 0.0
            for i in range(n):
                expected += len(set(order[i, :k].tolist()) & set(labels[i].tolist())) / k
            assert precision_at_k(scorer_params(n_classes), dataset, k=k).value == expected / n


@pytest.mark.parametrize("k", [1, 10])
def test_precision_at_k_cut_rule_at_large_k_equals_stable_argsort_oracle(k):
    """K = 2 048 rows with labels tied at the row's k-th value (-0.0 == 0.0 too), NaN labels,
    and rows holding more than K - k NaNs, so the cut itself is NaN."""
    rng = np.random.default_rng(k)
    n, n_classes = 64, 2048
    scores = rng.standard_normal((n, n_classes)).astype(np.float32)
    labels = []
    for i, row in enumerate(scores):
        kind = i % 4
        if kind == 1:  # the k-th value is a zero, tied with zeros of both signs
            row[:] = -np.abs(row) - 1.0
            row[rng.choice(n_classes, k - 1, replace=False)] = 1.0
            zeros = rng.choice(np.flatnonzero(row < 0), 30, replace=False)
            row[zeros] = np.where(rng.random(30) < 0.5, -0.0, 0.0)
        elif kind == 2:  # NaN scores, some of them labels
            row[rng.choice(n_classes, 200, replace=False)] = np.nan
        elif kind == 3:  # fewer than k numbers: the rest of the row is NaN
            row[rng.choice(n_classes, n_classes - k // 2, replace=False)] = np.nan
        order = np.argsort(-row, kind="stable")
        if kind in (0, 2):  # copies of the k-th value before and after its own index
            row[rng.choice(n_classes, 6, replace=False)] = row[order[k - 1]]
            order = np.argsort(-row, kind="stable")
        tied = np.flatnonzero((row == row[order[k - 1]]) | (np.isnan(row) & np.isnan(row[order[k - 1]])))
        picked = np.concatenate([tied[:8], tied[-8:], order[:k:3], rng.choice(n_classes, 3)])
        if kind == 2:
            picked = np.concatenate([picked, np.flatnonzero(np.isnan(row))[:5]])
        labels.append(picked)
    dataset = score_examples(scores, labels)
    order = np.argsort(-scores, axis=1, kind="stable")
    expected = 0.0
    for i in range(n):
        expected += len(set(order[i, :k].tolist()) & set(labels[i].tolist())) / k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "forward", lambda params, images: (images.reshape(len(images), -1), None))
        mp.setattr(evaluate, "score_subset", lambda w_cols, e, out=None: e)
        assert precision_at_k(scorer_params(n_classes), dataset, k=k).value == expected / n


def test_extract_features_matches_forward_per_example(monkeypatch):
    monkeypatch.setattr(evaluate, "_ROW_CHUNK", 3)
    cfg = ModelConfig(input_hwc=(5, 5, 2), layers=[("conv", 2, 3), ("fc", 6)], embed_dim=6)
    params = init_params(cfg, k=4, seed=2)
    rng = np.random.default_rng(22)
    images = rng.standard_normal((7, 5, 5, 2)).astype(np.float32)
    dataset = Dataset.from_labels([f"ex{i}" for i in range(7)], images, [[0]] * 7)
    feats = extract_features(params, dataset)
    assert feats.shape == (7, 6)
    for i in range(7):
        single, _ = forward(params, images[i : i + 1])
        np.testing.assert_array_equal(feats[i], single[0])


def separable_blobs(rng, n_per=60, centers=((0, 0), (8, 0), (0, 8)), labels=(0, 1, 2)):
    feats, labs = [], []
    for center, lab in zip(centers, labels):
        feats.append(np.array(center) + 0.3 * rng.standard_normal((n_per, 2)))
        labs.extend([lab] * n_per)
    return np.concatenate(feats), np.array(labs)


def test_linear_probe_separates_blobs():
    x, y = separable_blobs(np.random.default_rng(23))
    probe, report = linear_probe(x, y)
    assert report.metric == "probe_accuracy"
    assert report.value == 1.0
    assert probe.weights.shape == (2, 3)
    # every grid point separates this data, so the tie resolves small
    assert probe.lam == pytest.approx(1e-4)
    assert probe.grad_norm < 1e-6 and probe.iterations > 0


def test_linear_probe_handles_non_contiguous_labels():
    x, y = separable_blobs(np.random.default_rng(24), labels=(3, 7, 9))
    probe, report = linear_probe(x, y)
    assert report.value == 1.0
    assert probe.weights.shape[1] == 3


def test_linear_probe_fits_only_classes_present_in_its_fit_rows(monkeypatch):
    x, y = separable_blobs(np.random.default_rng(24))
    test_rows = [i for i in range(len(y)) if stable_fraction(f"row{i}", salt="probe-test-0") >= 0.8]
    y[test_rows[:2]] = 5  # a class that only test rows carry
    fitted = []
    fit_multinomial = evaluate._fit_multinomial

    def spy(x, labels, lam):
        fitted.append(set(labels.tolist()))
        return fit_multinomial(x, labels, lam)

    monkeypatch.setattr(evaluate, "_fit_multinomial", spy)
    probe, report = linear_probe(x, y)
    assert fitted == [{0, 1, 2}] * 8  # seven lambdas and the refit
    assert probe.classes.tolist() == [0, 1, 2]
    # the blobs separate, so exactly the two rows of the never-fit class miss
    assert report.value == 1.0 - 2 / report.n_items


def test_linear_probe_is_deterministic_per_seed():
    x, y = separable_blobs(np.random.default_rng(25), n_per=40)
    x = x + 2.0 * np.random.default_rng(1).standard_normal(x.shape)  # make it imperfect
    _, report_a = linear_probe(x, y, seed=0)
    _, report_b = linear_probe(x, y, seed=0)
    assert report_a.to_json() == report_b.to_json()


def overlapping_blobs(rng, n=150, n_classes=3):
    """Noisy 4-d features with a dead (all-zero) unit in column 2: no perfect split."""
    labels = np.arange(n) % n_classes
    centers = rng.standard_normal((n_classes, 4))
    x = centers[labels] + 1.5 * rng.standard_normal((n, 4))
    x[:, 2] = 0.0
    return x, labels


def reference_objective(v, x, labels, lam):
    """Mean cross-entropy + lam/2 ||W||^2 and its gradient over v = [W; b] (bias unpenalized)."""
    n, e = x.shape
    v = v.reshape(e + 1, -1)
    w, b = v[:-1], v[-1]
    logits = x @ w + b
    log_p = logits - scipy.special.logsumexp(logits, axis=1, keepdims=True)
    diff = np.exp(log_p)
    diff[np.arange(n), labels] -= 1.0
    grad = np.vstack([x.T @ diff / n + lam * w, diff.sum(axis=0) / n])
    return -log_p[np.arange(n), labels].mean() + 0.5 * lam * (w * w).sum(), grad.ravel()


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
def test_multinomial_hessp_matches_central_differences_of_the_gradient(lam):
    rng = np.random.default_rng(40)
    x, labels = overlapping_blobs(rng)
    xb = np.hstack([x, np.ones((len(x), 1))])
    fun, hessp = evaluate._multinomial_objective(xb, labels, lam)
    v = rng.standard_normal(xb.shape[1] * 3)
    h = 1e-4
    for _ in range(5):
        d = rng.standard_normal(v.size)
        fun(v)
        cached = hessp(v, d)  # reuses the softmax fun just computed at v
        fd = (fun(v + h * d)[1] - fun(v - h * d)[1]) / (2 * h)
        fresh = hessp(v, d)  # fun's last point was v - h d: the softmax is recomputed at v
        np.testing.assert_array_equal(cached, fresh)
        assert np.linalg.norm(fresh - fd) < 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
def test_fit_multinomial_reaches_the_optimum(lam):
    x, labels = overlapping_blobs(np.random.default_rng(41))
    fit = evaluate._fit_multinomial(x, labels, lam)
    assert fit.lam == lam and fit.iterations > 0
    v = np.vstack([fit.weights, fit.bias]).ravel()
    value, grad = reference_objective(v, x, labels, lam)
    assert fit.grad_norm < 1e-6
    assert np.linalg.norm(grad) == pytest.approx(fit.grad_norm, abs=1e-9)
    assert np.all(fit.weights[2] == 0.0)  # the dead unit's weights stay at their optimum, 0
    reference = scipy.optimize.minimize(
        reference_objective, np.zeros_like(v), args=(x, labels, lam), jac=True, method="L-BFGS-B",
        options={"maxiter": 100_000, "ftol": 1e-15, "gtol": 1e-11},
    )
    assert abs(value - reference.fun) < 1e-9


def test_fit_multinomial_refuses_to_return_an_unconverged_fit(monkeypatch):
    monkeypatch.setattr(evaluate, "_NEWTON_MAX_ITERATIONS", 2)
    x, labels = overlapping_blobs(np.random.default_rng(41))
    with pytest.raises(ValueError, match="probe fit at lambda 0.01 stopped after 2 iterations at gradient norm"):
        evaluate._fit_multinomial(x, labels, 1e-2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_linear_probe_refuses_a_lambda_without_optimum(bad):
    x, y = separable_blobs(np.random.default_rng(27), n_per=20)
    with pytest.raises(ValueError, match="every lambda must be finite and > 0"):
        linear_probe(x, y, lambda_grid=[1e-3, bad])


def test_linear_probe_validation():
    rng = np.random.default_rng(26)
    with pytest.raises(ValueError, match="single-class input"):
        linear_probe(rng.standard_normal((30, 2)), np.zeros(30, dtype=int))
    with pytest.raises(ValueError, match="features and labels disagree"):
        linear_probe(rng.standard_normal((10, 2)), np.zeros(9, dtype=int))
    with pytest.raises(ValueError, match="too few rows to split"):
        linear_probe(rng.standard_normal((2, 2)), np.array([0, 1]))


def brute_force_analogy(w, ia, ib, ic):
    unit = w / np.linalg.norm(w, axis=0)
    target = unit[:, ib] - unit[:, ia] + unit[:, ic]
    best, best_sim = None, -np.inf
    for j in range(w.shape[1]):
        if j in (ia, ib, ic):
            continue
        sim = float(target @ unit[:, j])
        if sim > best_sim:
            best, best_sim = j, sim
    return best


def test_analogy_matches_brute_force():
    rng = np.random.default_rng(27)
    words = [f"word{i:02d}" for i in range(12)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((5, 12))
    questions = []
    expected_hits = 0
    for _ in range(20):
        ia, ib, ic, id_ = rng.choice(12, size=4, replace=False)
        questions.append((words[ia], words[ib], words[ic], words[id_]))
        expected_hits += brute_force_analogy(w, ia, ib, ic) == id_
    report = analogy_accuracy(w, questions, dictionary)
    assert report.value == pytest.approx(expected_hits / 20)
    assert (report.n_items, report.n_skipped) == (20, 0)


def test_analogy_matches_brute_force_across_query_chunks_with_ties():
    rng = np.random.default_rng(34)
    words = [f"word{i:02d}" for i in range(40)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((4, 40))
    w[:, 20:30] = w[:, 10:20]  # duplicated columns: exact ties go to the first max
    questions = []
    expected_hits = 0
    for i in range(320):
        ia, ib, ic, other = rng.choice(40, size=4, replace=False)
        best = brute_force_analogy(w, ia, ib, ic)
        id_ = best if i % 2 else other  # half are right, so every 64-question chunk counts
        if i % 50 == 7:  # skipped questions shift the scored ones against the input order
            questions.append((words[ia], words[ib], "nope", words[id_]))
            continue
        questions.append((words[ia], words[ib], words[ic], words[id_]))
        expected_hits += best == id_
    report = analogy_accuracy(w, questions, dictionary)
    assert (report.n_items, report.n_skipped) == (313, 7)
    assert report.value == expected_hits / 313


def test_analogy_excludes_question_words_from_search():
    dictionary = make_dictionary(["qa", "qb", "qc", "qd", "other"])
    w = np.array(
        [
            [1.0, 0.0, 1.0, 0.6, 1.0],
            [0.0, 1.0, 0.0, 0.8, 0.0],
        ]
    )
    # target equals column qb exactly; qb is excluded so qd wins
    report = analogy_accuracy(w, [("qa", "qb", "qc", "qd")], dictionary)
    assert report.value == 1.0


def test_analogy_skips_and_zero_norm():
    dictionary = make_dictionary(["aa", "bb", "cc", "dd"])
    w = np.ones((3, 4))
    questions = [
        ("aa", "bb", "cc", "nope"),
        ("zz", "bb", "cc", "dd"),
    ]
    report = analogy_accuracy(w, questions, dictionary)
    assert (report.n_items, report.n_skipped, report.value) == (0, 2, 0.0)

    w_bad = w.copy()
    w_bad[:, 0] = 0.0
    with pytest.raises(ValueError, match="zero-norm embedding column"):
        analogy_accuracy(w_bad, [("aa", "bb", "cc", "dd")], dictionary)


def test_analogy_holds_no_float64_copy_of_w_through_the_search():
    """With E = 64 a 64-query chunk of cosines is as large as W in float64: the copy, then unit
    columns and one chunk make the peak; holding the copy through the search adds a fourth."""
    k = 4000
    words = [f"w{j}" for j in range(k)]
    rng = np.random.default_rng(36)
    w = rng.standard_normal((64, k)).astype(np.float32)
    questions = [tuple(rng.choice(words, 4, replace=False)) for _ in range(200)]
    tracemalloc.start()
    try:
        analogy_accuracy(w, questions, make_dictionary(words))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * w.size


def test_spearman_matches_scipy():
    rng = np.random.default_rng(28)
    words = [f"tok{i}" for i in range(15)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((6, 15))
    pairs = []
    for _ in range(30):
        i, j = rng.choice(15, size=2, replace=False)
        rating = float(rng.integers(0, 5))  # integer ratings force rank ties
        pairs.append((words[i], words[j], rating))
    report = spearman_similarity(w, pairs, dictionary)
    cosines = [
        float(w[:, dictionary.word_to_index[p[0]]] @ w[:, dictionary.word_to_index[p[1]]]
              / (np.linalg.norm(w[:, dictionary.word_to_index[p[0]]])
                 * np.linalg.norm(w[:, dictionary.word_to_index[p[1]]])))
        for p in pairs
    ]
    expected = scipy.stats.spearmanr(cosines, [p[2] for p in pairs]).statistic
    assert abs(report.value - expected) < 1e-12
    assert report.metric == "spearman_similarity"


def test_spearman_counts_zero_norm_pairs_as_cosine_zero():
    rng = np.random.default_rng(32)
    words = [f"tok{i}" for i in range(12)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((5, 12))
    w[:, [0, 7]] = 0.0
    pairs = [
        (words[i], words[j], float(rng.integers(0, 6)))
        for i, j in (rng.choice(12, size=2, replace=False) for _ in range(40))
    ]
    cosines = []
    for p in pairs:
        u = w[:, dictionary.word_to_index[p[0]]]
        v = w[:, dictionary.word_to_index[p[1]]]
        norm = np.linalg.norm(u) * np.linalg.norm(v)
        cosines.append(float(u @ v / norm) if norm > 0 else 0.0)
    assert cosines.count(0.0) >= 2  # the zero columns take part, so their pairs tie at 0
    expected = scipy.stats.spearmanr(cosines, [p[2] for p in pairs]).statistic
    assert abs(spearman_similarity(w, pairs, dictionary).value - expected) < 1e-12


def test_spearman_extremes_and_constant():
    words = ["anchor", "p1", "p2", "p3", "p4"]
    dictionary = make_dictionary(words)
    angles = np.array([0.0, 0.2, 0.5, 0.9, 1.3])
    w = np.vstack([np.cos(angles), np.sin(angles)])
    pairs = [("anchor", wd, 5.0 - i) for i, wd in enumerate(words[1:])]
    assert spearman_similarity(w, pairs, dictionary).value == pytest.approx(1.0)
    flipped = [(p[0], p[1], -p[2]) for p in pairs]
    assert spearman_similarity(w, flipped, dictionary).value == pytest.approx(-1.0)
    constant = [(p[0], p[1], 3.0) for p in pairs]
    assert spearman_similarity(w, constant, dictionary).value == 0.0


def test_spearman_needs_two_scorable_pairs():
    dictionary = make_dictionary(["aa", "bb"])
    pairs = [("aa", "bb", 1.0), ("aa", "zz", 2.0)]
    with pytest.raises(ValueError, match="fewer than 2 scorable pairs"):
        spearman_similarity(np.ones((2, 2)), pairs, dictionary)


def brute_force_translation(w, dictionary, pairs, direction, k):
    w2i = dictionary.word_to_index
    oriented = []
    for p in pairs:
        if p[0] in w2i and p[1] in w2i:
            oriented.append((p[0], p[1]) if direction == "forward" else (p[1], p[0]))
    candidates = sorted({w2i[t] for _, t in oriented})
    hits = 0
    for src, tgt in oriented:
        sims = []
        q = w[:, w2i[src]]
        for c in candidates:
            col = w[:, c]
            norm = np.linalg.norm(q) * np.linalg.norm(col)
            sims.append(float(q @ col / norm) if norm > 0 else 0.0)
        top = brute_force_top_k(sims, min(k, len(candidates)))
        hits += w2i[tgt] in [candidates[t] for t in top]
    return hits / len(oriented)


def test_translation_matches_brute_force():
    rng = np.random.default_rng(29)
    words = [f"src{i}" for i in range(8)] + [f"tgt{i}" for i in range(8)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((5, 16))
    pairs = [(f"src{i}", f"tgt{i}") for i in range(8)]
    for direction in ("forward", "reverse"):
        for k in (1, 3):
            report = translation_precision(w, pairs, dictionary, direction=direction, k=k)
            expected = brute_force_translation(w, dictionary, pairs, direction, k)
            assert report.value == pytest.approx(expected)
            assert report.metric == f"translation_precision_{direction}"
            assert report.k == k


def test_translation_matches_brute_force_across_query_chunks():
    rng = np.random.default_rng(33)
    words = [f"src{i}" for i in range(30)] + [f"tgt{i}" for i in range(40)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((6, 70))
    w[:, 30 + 7] = w[:, 30 + 3]  # two tied target columns
    w[:, 5] = 0.0  # a zero-norm query (a zero-norm candidate in reverse)
    pairs = [
        (f"src{i}", f"tgt{j}")
        for i, j in zip(rng.integers(0, 30, size=700), rng.integers(0, 40, size=700))
    ]
    pairs += [("src5", "tgt3"), ("src9", "tgt7")]
    for direction in ("forward", "reverse"):
        for k in (1, 3, 50):
            report = translation_precision(w, pairs, dictionary, direction=direction, k=k)
            assert report.n_items == 702
            assert report.value == brute_force_translation(w, dictionary, pairs, direction, k)


def test_translation_restricts_ranking_to_candidates():
    dictionary = make_dictionary(["qsrc", "near", "far", "other", "xtra"])
    w = np.array(
        [
            [1.0, 0.9999, 0.70, 0.0, 0.05],
            [0.0, 0.0141, 0.714, 1.0, 0.9987],
        ]
    )
    # "near" is the global nearest to qsrc but never appears on the target
    # side, so the ranking for qsrc is over {far, other} and far wins
    pairs = [("qsrc", "far"), ("xtra", "other")]
    report = translation_precision(w, pairs, dictionary, direction="forward", k=1)
    assert report.value == 1.0

    wide = translation_precision(w, pairs, dictionary, direction="forward", k=10)
    assert wide.value == 1.0  # k clamps to the candidate count


def test_translation_ties_break_by_ascending_index():
    dictionary = make_dictionary(["query", "src2", "tgt_a", "tgt_b"])
    w = np.array([[1.0, 1.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]])  # targets identical
    pairs = [("query", "tgt_b"), ("src2", "tgt_a")]
    # every query ties between the two targets and tgt_a has the smaller
    # index, so only the tgt_a pair scores at k=1
    assert translation_precision(w, pairs, dictionary, k=1).value == 0.5
    assert translation_precision(w, pairs, dictionary, k=2).value == 1.0


def test_translation_skips_and_errors():
    dictionary = make_dictionary(["aa", "bb"])
    w = np.ones((2, 2))
    report = translation_precision(
        w, [("aa", "bb"), ("aa", "zz")], dictionary
    )
    assert (report.n_items, report.n_skipped) == (1, 1)
    with pytest.raises(ValueError, match="empty candidate set"):
        translation_precision(w, [("xx", "yy")], dictionary)
    with pytest.raises(ValueError, match="direction must be"):
        translation_precision(w, [("aa", "bb")], dictionary, direction="up")
    with pytest.raises(ValueError, match="k must be positive"):
        translation_precision(w, [("aa", "bb")], dictionary, k=0)


def test_dump_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    words = [f"w{i:02d}" for i in range(9)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((4, 9))
    csv_path = str(tmp_path / "emb.csv")
    neighbors_path = dump_embeddings(w, dictionary, csv_path, n_neighbors=3)
    assert neighbors_path == str(tmp_path / "emb_neighbors.json")

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows] == words
    parsed = np.array([[float(v) for v in r[1:]] for r in rows]).T
    np.testing.assert_allclose(parsed, w, rtol=0, atol=1e-6)

    with open(neighbors_path) as fh:
        neighbors = json.load(fh)
    unit = w / np.linalg.norm(w, axis=0)
    for j, word in enumerate(words):
        sims = [float(unit[:, j] @ unit[:, m]) if m != j else -np.inf for m in range(9)]
        expected = [words[t] for t in brute_force_top_k(sims, 3)]
        assert neighbors[word] == expected


@pytest.mark.parametrize("n_neighbors", [1, 149])
def test_dump_embeddings_matches_brute_force_across_chunks_with_ties(tmp_path, n_neighbors):
    rng = np.random.default_rng(35)
    words = [f"w{i:03d}" for i in range(150)]
    dictionary = make_dictionary(words)
    w = rng.standard_normal((5, 150))
    w[:, 100:150] = w[:, 20:70]  # duplicated columns tie exactly
    w[:, 90] = 0.0  # a zero column scores 0 against every word
    neighbors_path = dump_embeddings(w, dictionary, str(tmp_path / "emb.csv"), n_neighbors=n_neighbors)
    with open(neighbors_path) as fh:
        neighbors = json.load(fh)
    norms = np.linalg.norm(w, axis=0)
    unit = w / np.where(norms > 0, norms, 1.0)
    assert sorted(neighbors) == words
    for j, word in enumerate(words):
        sims = [float(unit[:, j] @ unit[:, m]) if m != j else -np.inf for m in range(150)]
        assert neighbors[word] == [words[t] for t in brute_force_top_k(sims, n_neighbors)]


@pytest.mark.parametrize("dict_k, w_k", [(30, 20), (20, 30)])
def test_word_evals_refuse_a_dictionary_whose_k_differs_from_w(dict_k, w_k):
    """Every looked-up word is a column of W, so only the column count tells the mismatch."""
    dictionary = make_dictionary([f"w{i}" for i in range(dict_k)])
    w = np.random.default_rng(35).standard_normal((4, w_k))
    calls = [
        lambda: analogy_accuracy(w, [("w0", "w1", "w2", "w3")], dictionary),
        lambda: spearman_similarity(w, [("w0", "w1", 1.0), ("w2", "w3", 2.0), ("w4", "w5", 0.5)], dictionary),
        lambda: translation_precision(w, [("w0", "w1"), ("w2", "w3")], dictionary),
        lambda: translation_precision(w, [("w0", "w1"), ("w2", "w3")], dictionary, direction="reverse"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"embedding count {w_k} differs from dictionary size {dict_k}"):
            call()


def test_dump_embeddings_validates_shape(tmp_path):
    dictionary = make_dictionary(["aa", "bb"])
    with pytest.raises(ValueError, match="differs from dictionary size"):
        dump_embeddings(np.ones((3, 5)), dictionary, str(tmp_path / "x.csv"))
