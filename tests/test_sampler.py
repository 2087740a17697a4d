"""Class-balanced batch sampling."""

import numpy as np
import pytest
from scipy import stats

from util import random_single_label_dataset, score_examples
from weaklearn.sampler import (
    RNG_ALGO,
    ClassIndex,
    build_index,
    make_rng,
    next_batch,
)


def test_build_index_counts_membership():
    dataset = score_examples(np.zeros((2, 3)), [[0, 1], [1]])
    index = build_index(dataset)
    assert index.counts.tolist() == [1, 2]
    assert index.members[0].tolist() == [0]
    assert index.members[1].tolist() == [0, 1]
    assert index.active_classes.tolist() == [0, 1]


def test_build_index_matches_linear_scan():
    rng = np.random.default_rng(8)
    dataset = random_single_label_dataset(300, 7, rng)
    index = build_index(dataset)
    for c in range(7):
        expected = [i for i, ex in enumerate(dataset) if c in ex.labels]
        assert index.members[c].tolist() == expected
        assert index.counts[c] == len(expected)
    assert sum(len(ex.labels) for ex in dataset) == int(index.counts.sum())


def test_empty_class_is_inactive():
    dataset = score_examples(np.zeros((2, 5)), [[0], [4]])
    index = build_index(dataset, num_classes=5)
    assert index.active_classes.tolist() == [0, 4]


def test_build_index_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        build_index([])


def test_single_active_class_dominates_batch():
    dataset = score_examples(np.zeros((3, 4)), [[2], [2], [2]])
    index = build_index(dataset)
    batch = next_batch(index, 16, make_rng(0), dataset)
    assert np.all(batch.targets == 2)
    assert batch.present_classes.tolist() == [2]


def test_batches_are_deterministic_per_seed():
    rng = np.random.default_rng(1)
    dataset = random_single_label_dataset(50, 5, rng)
    index = build_index(dataset)
    a = [next_batch(index, 8, make_rng(42), dataset) for _ in range(1)][0]
    b = next_batch(index, 8, make_rng(42), dataset)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.ordinals, b.ordinals)
    c = next_batch(index, 8, make_rng(43), dataset)
    assert not np.array_equal(a.ordinals, c.ordinals)


def test_batch_contents_are_consistent():
    rng = np.random.default_rng(2)
    dataset = random_single_label_dataset(40, 6, rng)
    # give some examples a second label so the single-target rule is visible
    for ex in dataset[::3]:
        extra = (int(ex.labels[0]) + 1) % 6
        ex.labels = np.unique(np.append(ex.labels, extra))
    index = build_index(dataset)
    gen = make_rng(3)
    for _ in range(20):
        batch = next_batch(index, 16, gen, dataset)
        assert len(batch.targets) == 16
        assert batch.present_classes.tolist() == sorted(set(int(t) for t in batch.targets))
        for ordinal, target in zip(batch.ordinals, batch.targets):
            assert int(target) in dataset[int(ordinal)].labels.tolist()
        np.testing.assert_array_equal(
            batch.images, np.stack([dataset[int(o)].image for o in batch.ordinals])
        )


def test_class_marginal_is_uniform_despite_skewed_counts():
    # class sizes span three orders of magnitude: 1, 2, 5, ..., 1000
    sizes = [1, 2, 5, 10, 25, 75, 150, 300, 600, 1000]
    rng = np.random.default_rng(4)
    dataset = []
    for c, n_c in enumerate(sizes):
        block = score_examples(rng.standard_normal((n_c, 10)) ** 2, [[c]] * n_c)
        for i, ex in enumerate(block):
            ex.id = f"c{c}e{i}"
        dataset.extend(block)
    index = build_index(dataset)

    gen = make_rng(99)
    draws = np.concatenate(
        [next_batch(index, 1000, gen, dataset).targets for _ in range(100)]
    )
    counts = np.bincount(draws, minlength=10)
    assert stats.chisquare(counts).pvalue > 0.01
    freqs = counts / draws.size
    assert np.all(freqs > 0.09) and np.all(freqs < 0.11)


def test_within_class_choice_is_uniform():
    dataset = score_examples(np.ones((8, 3)), [[1]] * 8)
    index = build_index(dataset)
    gen = make_rng(5)
    picks = np.concatenate(
        [next_batch(index, 500, gen, dataset).ordinals for _ in range(40)]
    )
    counts = np.bincount(picks, minlength=8)
    assert stats.chisquare(counts).pvalue > 0.01


def test_next_batch_requires_active_classes():
    empty = ClassIndex(
        members=[np.array([], dtype=np.int64)],
        counts=np.array([0]),
        active_classes=np.array([], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="no active classes"):
        next_batch(empty, 4, make_rng(0), [])


def test_rng_helpers():
    assert RNG_ALGO == "numpy-pcg64"
    a, b = make_rng(7), make_rng(7)
    assert a.integers(0, 1 << 30, size=5).tolist() == b.integers(0, 1 << 30, size=5).tolist()
