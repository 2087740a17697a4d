"""Acceptance criteria, one test per criterion.

Each test asserts the stated thresholds and records its measured numbers;
the collected lines print in the terminal summary after the run.
"""

import itertools
import json
import math
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest
import scipy.stats

from conftest import record
from util import score_examples, scorer_params
from weaklearn.data import Dataset, SynthConfig, generate_synthetic, nearest_prototype_precision
from weaklearn.evaluate import (
    analogy_accuracy,
    precision_at_k,
    spearman_similarity,
    translation_precision,
)
from weaklearn.loss import check_bounds
from weaklearn.model import ModelConfig, init_params, param_arrays
from weaklearn.sampler import build_index, make_rng, next_batch
from weaklearn.textpipe import Dictionary
from weaklearn.trainer import (
    TrainConfig,
    _batch_grads,
    gradient_check,
    schedule_violations,
    sgd_step,
    split_dataset,
    train,
    validation_error,
)

DEFAULT_MODEL = dict(layers=[("fc", 64), ("fc", 64)], embed_dim=64)


@pytest.fixture(scope="session")
def preset_bundle():
    return generate_synthetic(SynthConfig())


def run_preset(preset_bundle, full_softmax):
    examples, dictionary, _ = preset_bundle
    cfg = TrainConfig(seed=0, full_softmax=full_softmax)
    model_cfg = ModelConfig(input_hwc=examples.images.shape[1:], **DEFAULT_MODEL)
    start = perf_counter()
    params, log = train(cfg, examples, model_cfg, k=dictionary.k)
    seconds = perf_counter() - start
    val = examples[split_dataset(examples, cfg.validation_fraction)[1]]
    return {"params": params, "log": log, "cfg": cfg, "seconds": seconds, "val": val}


@pytest.fixture(scope="session")
def sampled_run(preset_bundle):
    return run_preset(preset_bundle, full_softmax=False)


@pytest.fixture(scope="session")
def full_softmax_run(preset_bundle):
    return run_preset(preset_bundle, full_softmax=True)


def test_criterion_01_gradients_match_finite_differences():
    model_cfg = ModelConfig(
        input_hwc=(6, 6, 1),
        layers=[("conv", 3, 4), ("fc", 16), ("fc", 8)],
        embed_dim=8,
        dtype="f64",
    )
    n_params = init_params(model_cfg, k=10, seed=0).n_params()
    assert n_params <= 1000
    start = perf_counter()
    err_mc = gradient_check(model_cfg, "multiclass", seed=11)
    err_ova = gradient_check(model_cfg, "one_vs_all", seed=11)
    elapsed = perf_counter() - start
    record(
        f"criterion 01 PASS rel_err multiclass={err_mc:.2e} one_vs_all={err_ova:.2e} "
        f"params={n_params} elapsed={elapsed:.1f}s (require <1e-5 in <10s)"
    )
    assert err_mc < 1e-5
    assert err_ova < 1e-5
    assert elapsed < 10.0


def test_criterion_02_partition_bounds_hold_everywhere():
    start = perf_counter()
    rng = np.random.default_rng(2026)
    held = 0
    for i in range(100):
        k = int(rng.integers(2, 51))
        sizes = [1, max(1, k // 4), max(1, k // 2), k]
        m = sizes[i % 4]
        logits = rng.standard_normal(k) * rng.uniform(0.5, 3.0)
        pos = int(rng.integers(k))
        rep = check_bounds(logits, subset_size=m, trials=100_000, seed=1000 + i,
                           positive_index=pos)
        held += rep.upper_holds and rep.lower_holds

    # exhaustive cross-check: K=10, m=3, positive class always in the subset
    logits10 = np.random.default_rng(7).standard_normal(10)
    rep10 = check_bounds(logits10, subset_size=3, trials=100_000, seed=42, positive_index=0)
    shifted = logits10 - logits10.min()
    exact_vals = [
        float(np.logaddexp.reduce(shifted[[0, a, b]]))
        for a, b in itertools.combinations(range(1, 10), 2)
    ]
    exact_mean = sum(exact_vals) / len(exact_vals)
    gap = abs(rep10.mc_mean - exact_mean)
    elapsed = perf_counter() - start
    record(
        f"criterion 02 PASS bounds held {held}/100, exhaustive gap={gap:.2e} "
        f"(limit {3 * rep10.mc_stderr:.2e}), elapsed={elapsed:.0f}s (require <120s)"
    )
    assert held == 100
    assert gap <= 3 * rep10.mc_stderr
    assert max(exact_vals) <= rep10.log_z
    assert elapsed < 120.0


def test_criterion_03_sampled_softmax_tracks_full(sampled_run, full_softmax_run):
    p_sampled = 1.0 - validation_error(sampled_run["params"], sampled_run["val"], k=1)
    p_full = 1.0 - validation_error(full_softmax_run["params"], full_softmax_run["val"], k=1)
    record(
        f"criterion 03 PASS val p@1 sampled={p_sampled:.4f} full={p_full:.4f} "
        f"diff={abs(p_sampled - p_full):.4f} times={sampled_run['seconds']:.0f}s/"
        f"{full_softmax_run['seconds']:.0f}s (require diff<=0.05, each <300s)"
    )
    assert abs(p_sampled - p_full) <= 0.05
    assert sampled_run["seconds"] < 300.0
    assert full_softmax_run["seconds"] < 300.0


def test_criterion_04_default_preset_reaches_target(preset_bundle, sampled_run):
    _, _, prototypes = preset_bundle
    ceiling = nearest_prototype_precision(sampled_run["val"], prototypes)
    p1 = 1.0 - validation_error(sampled_run["params"], sampled_run["val"], k=1)
    record(
        f"criterion 04 PASS nearest-prototype ceiling={ceiling:.4f} "
        f"model val p@1={p1:.4f} elapsed={sampled_run['seconds']:.0f}s "
        f"(require >=0.90 in <300s)"
    )
    assert p1 >= 0.90
    assert sampled_run["seconds"] < 300.0


def test_criterion_05_sampler_is_class_balanced():
    sizes = [2, 6, 20, 60, 200, 600, 2000, 50, 10, 500]  # max/min spans 3 decades
    ids, images, labels = [], [], []
    for cls, size in enumerate(sizes):
        for j in range(size):
            ids.append(f"c{cls}e{j}")
            images.append(np.full((1, 1, 1), float(cls), dtype=np.float32))
            labels.append([cls])
    dataset = Dataset.from_labels(ids, images, labels)
    index = build_index(dataset, num_classes=len(sizes))
    rng = make_rng(5)
    counts = np.zeros(len(sizes), dtype=np.int64)
    draws = 100_000
    for _ in range(draws // 1000):
        batch = next_batch(index, 1000, rng, dataset)
        np.add.at(counts, batch.targets, 1)
        for ordinal, target in zip(batch.ordinals, batch.targets):
            assert target in dataset.labels_of(ordinal)
    chi = scipy.stats.chisquare(counts)
    freqs = counts / draws
    record(
        f"criterion 05 PASS chi2 p={chi.pvalue:.3f} freq range "
        f"[{freqs.min():.4f}, {freqs.max():.4f}] over {draws} draws "
        f"(require p>0.01, target in labels for every pair)"
    )
    assert chi.pvalue > 0.01


def test_criterion_06_sparse_updates_match_dense_oracle():
    k = 20
    rng = np.random.default_rng(60)
    dataset = Dataset.from_labels(
        [f"s{i}" for i in range(400)],
        [rng.standard_normal((3, 3, 1)).astype(np.float32) for i in range(400)],
        [[i % 10] for i in range(400)],
    )
    model_cfg = ModelConfig(input_hwc=(3, 3, 1), layers=[("fc", 16)], embed_dim=16)
    params = init_params(model_cfg, k, seed=3)
    init_w = params.output_weights.copy()
    shadow = params.output_weights.copy()
    cfg = TrainConfig(seed=3, batch_size=32)
    index = build_index(dataset, num_classes=k)
    batch_rng = make_rng(7)
    seen = set()
    for _ in range(100):
        batch = next_batch(index, cfg.batch_size, batch_rng, dataset)
        _, grads, classes = _batch_grads(params, batch, cfg, k)
        seen.update(int(c) for c in classes)
        dense = np.zeros_like(shadow)
        dense[:, classes] = grads.w_cols
        shadow -= cfg.lr_init * dense
        sgd_step(params, grads, classes, cfg.lr_init)

    never_sampled = sorted(set(range(k)) - seen)
    assert never_sampled == list(range(10, 20))  # labels only cover 0..9
    assert params.output_weights[:, never_sampled].tobytes() == init_w[:, never_sampled].tobytes()
    assert params.output_weights.tobytes() == shadow.tobytes()
    assert params.output_weights[:, sorted(seen)].tobytes() != init_w[:, sorted(seen)].tobytes()
    record(
        f"criterion 06 PASS 100 steps, {len(seen)} sampled columns equal the dense "
        f"oracle bitwise, {len(never_sampled)} untouched columns equal init bitwise"
    )


def test_criterion_07_more_data_does_not_hurt():
    gen = SynthConfig(k=20, img_size=8, noise_sigma=2.0, seed=7, n_examples=102_000)
    examples, dictionary, _ = generate_synthetic(gen)
    test_set = examples[100_000:]
    model_cfg = ModelConfig(input_hwc=(8, 8, 1), layers=[("fc", 32)], embed_dim=32)
    precisions = []
    for n in (1_000, 10_000, 100_000):
        cfg = TrainConfig(seed=1, max_epochs=30, epoch_size=5_000)
        params, _ = train(cfg, examples[:n], model_cfg, k=dictionary.k)
        precisions.append(precision_at_k(params, test_set, k=1).value)
    record(
        "criterion 07 PASS test p@1 by train size: "
        + " ".join(f"{n}={p:.4f}" for n, p in zip((1_000, 10_000, 100_000), precisions))
        + " (require non-decreasing within 0.02)"
    )
    assert precisions[1] >= precisions[0] - 0.02
    assert precisions[2] >= precisions[1] - 0.02


def brute_top_k(scores, k):
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k]


def test_criterion_08_eval_metrics_match_brute_force():
    rng = np.random.default_rng(80)
    k_classes, embed = 40, 8
    words = [f"w{i:02d}" for i in range(k_classes)]
    dictionary = Dictionary(words=words, counts=np.arange(k_classes, 0, -1), stop_count=0)
    w_out = rng.standard_normal((embed, k_classes))

    # ranking metric: exact agreement with an argsort-free oracle
    scores = rng.uniform(size=(30, k_classes)).astype(np.float32)
    labels = [sorted(rng.choice(k_classes, size=3, replace=False).tolist()) for _ in range(30)]
    dataset = score_examples(scores, labels)
    params = scorer_params(k_classes)
    for k in (1, 5, 10):
        acc = 0.0
        for i in range(30):
            acc += len(set(brute_top_k(scores[i], k)) & set(labels[i])) / k
        assert precision_at_k(params, dataset, k=k).value == acc / 30

    # analogies: exact agreement on every prediction
    unit = w_out / np.linalg.norm(w_out, axis=0)
    questions, hits = [], 0
    for _ in range(30):
        ia, ib, ic, id_ = rng.choice(k_classes, size=4, replace=False)
        questions.append((words[ia], words[ib], words[ic], words[id_]))
        target = unit[:, ib] - unit[:, ia] + unit[:, ic]
        sims = [-np.inf if j in (ia, ib, ic) else float(target @ unit[:, j])
                for j in range(k_classes)]
        hits += brute_top_k(sims, 1)[0] == id_
    assert analogy_accuracy(w_out, questions, dictionary).value == hits / 30

    # similarity: against scipy within 1e-12
    pairs = []
    for _ in range(40):
        i, j = rng.choice(k_classes, size=2, replace=False)
        pairs.append((words[i], words[j], float(rng.integers(0, 6))))
    cosines = [float(unit[:, dictionary.word_to_index[p[0]]]
                     @ unit[:, dictionary.word_to_index[p[1]]]) for p in pairs]
    expected_rho = scipy.stats.spearmanr(cosines, [p[2] for p in pairs]).statistic
    rho_gap = abs(spearman_similarity(w_out, pairs, dictionary).value - expected_rho)
    assert rho_gap < 1e-12

    # translation: exact agreement, both directions
    bi_pairs = [(words[i], words[i + 20]) for i in range(12)]
    for direction in ("forward", "reverse"):
        oriented = [(p[0], p[1]) if direction == "forward" else (p[1], p[0])
                    for p in bi_pairs]
        candidates = sorted({dictionary.word_to_index[t] for _, t in oriented})
        t_hits = 0
        for src, tgt in oriented:
            q = unit[:, dictionary.word_to_index[src]]
            sims = [float(q @ unit[:, c]) for c in candidates]
            t_hits += candidates[brute_top_k(sims, 1)[0]] == dictionary.word_to_index[tgt]
        got = translation_precision(w_out, bi_pairs, dictionary, direction=direction, k=1)
        assert got.value == t_hits / len(bi_pairs)

    record(
        f"criterion 08 PASS ranking/analogy/translation match oracles exactly at K={k_classes}, "
        f"spearman gap={rho_gap:.1e} (require exact / <1e-12)"
    )


def test_criterion_09_pipeline_is_reproducible(tmp_path):
    def pipeline(root):
        data, run = root / "data", root / "run"
        steps = [
            ["gen-synth", "--k", "6", "--img-size", "6", "--noise", "0.3",
             "--n-examples", "300", "--seed", "3", "--out-dir", str(data)],
            ["build-dict", "--captions", str(data / "captions.jsonl"),
             "--k", "6", "--stop-count", "0", "--out", str(data / "dict.tsv")],
            ["train", "--data-dir", str(data), "--out-dir", str(run),
             "--max-epochs", "3", "--epoch-size", "300", "--batch-size", "30",
             "--seed", "5"],
            ["eval-words", "--ckpt", str(run / "checkpoint.wlckpt"),
             "--data", str(data), "--k", "1"],
        ]
        outputs = []
        for step in steps:
            proc = subprocess.run([sys.executable, "-m", "weaklearn", *step],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        return (run / "checkpoint.wlckpt").read_bytes(), outputs[-1]

    ckpt_a, metrics_a = pipeline(tmp_path / "a")
    ckpt_b, metrics_b = pipeline(tmp_path / "b")
    assert ckpt_a == ckpt_b
    assert json.loads(metrics_a) == json.loads(metrics_b)
    assert metrics_a == metrics_b
    record(
        f"criterion 09 PASS two pipeline runs: checkpoints byte-identical "
        f"({len(ckpt_a)} bytes), metric JSON identical"
    )


def test_criterion_10_schedule_contract_holds(sampled_run):
    records = sampled_run["log"].records
    cfg = sampled_run["cfg"]
    assert schedule_violations(records, cfg) == []
    lrs = [r["lr"] for r in records]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert len(records) == cfg.max_epochs or lrs[-1] / 2 < cfg.lr_floor

    # a noisier, smaller run exercises the halving branch under the same checker
    examples, dictionary, _ = generate_synthetic(
        SynthConfig(k=6, img_size=6, noise_sigma=1.5, n_examples=600, seed=11)
    )
    noisy_cfg = TrainConfig(seed=2, epoch_size=1000, max_epochs=120, batch_size=64)
    model_cfg = ModelConfig(input_hwc=(6, 6, 1), layers=[("fc", 16)], embed_dim=16)
    _, noisy_log = train(noisy_cfg, examples, model_cfg, k=dictionary.k)
    assert schedule_violations(noisy_log.records, noisy_cfg) == []
    noisy_lrs = [r["lr"] for r in noisy_log.records]
    halvings = sum(1 for a, b in zip(noisy_lrs, noisy_lrs[1:]) if b < a)
    record(
        f"criterion 10 PASS preset log clean over {len(records)} epochs; "
        f"noisy run clean with {halvings} halvings over {len(noisy_log.records)} epochs"
    )
