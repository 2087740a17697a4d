"""Class-balanced batch sampling."""

import numpy as np
import pytest
from scipy import stats

from util import random_single_label_dataset, score_examples
from weaklearn.data import Dataset
from weaklearn.sampler import (
    RNG_ALGO,
    ClassIndex,
    build_index,
    make_rng,
    next_batch,
)


def class_members(index, c):
    return index.members[index.offsets[c] : index.offsets[c + 1]].tolist()


def test_build_index_counts_membership():
    dataset = score_examples(np.zeros((2, 3)), [[0, 1], [1]])
    index = build_index(dataset)
    assert index.counts.tolist() == [1, 2]
    assert class_members(index, 0) == [0]
    assert class_members(index, 1) == [0, 1]
    assert index.active_classes.tolist() == [0, 1]


def test_build_index_matches_linear_scan():
    rng = np.random.default_rng(8)
    dataset = random_single_label_dataset(300, 7, rng)
    index = build_index(dataset)
    for c in range(7):
        expected = [i for i in range(len(dataset)) if c in dataset.labels_of(i)]
        assert class_members(index, c) == expected
        assert index.counts[c] == len(expected)
    assert dataset.label_flat.size == int(index.counts.sum())


def test_empty_class_is_inactive():
    dataset = score_examples(np.zeros((2, 5)), [[0], [4]])
    index = build_index(dataset, num_classes=5)
    assert index.active_classes.tolist() == [0, 4]


def test_build_index_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        build_index(score_examples(np.zeros((0, 3)), []))
    with pytest.raises(ValueError, match="empty dataset"):
        build_index(score_examples(np.zeros((2, 3)), [[0], [1]]), rows=[])
    with pytest.raises(ValueError, match="outside the 2 classes"):
        build_index(score_examples(np.zeros((2, 3)), [[0], [2]]), num_classes=2)


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
    base = random_single_label_dataset(40, 6, rng)
    # give some examples a second label so the single-target rule is visible
    labels = [
        sorted({int(l), (int(l) + 1) % 6}) if i % 3 == 0 else [int(l)]
        for i, l in enumerate(base.label_flat)
    ]
    dataset = Dataset.from_labels(base.ids, base.images, labels)
    index = build_index(dataset)
    gen = make_rng(3)
    for _ in range(20):
        batch = next_batch(index, 16, gen, dataset)
        assert len(batch.targets) == 16
        assert batch.present_classes.tolist() == sorted(set(int(t) for t in batch.targets))
        for ordinal, target in zip(batch.ordinals, batch.targets):
            assert int(target) in dataset.labels_of(int(ordinal)).tolist()
        np.testing.assert_array_equal(batch.images, dataset.images[batch.ordinals])


def reference_batches(dataset, n_batches, batch_size, seed, rows=None):
    """The per-slot sampler: linear-scan member lists, one members[c][i] per slot.

    Ordinals are positions in dataset[rows]; rows defaults to every row.
    """
    subset = dataset if rows is None else dataset[rows]
    k = 1 + int(subset.label_flat.max())
    members = [[i for i in range(len(subset)) if c in subset.labels_of(i)] for c in range(k)]
    counts = np.array([len(m) for m in members], dtype=np.int64)
    active = np.flatnonzero(counts > 0).astype(np.int64)
    rng = make_rng(seed)
    out = []
    for _ in range(n_batches):
        classes = active[rng.integers(0, active.size, size=batch_size)]
        within = rng.integers(0, counts[classes])
        ordinals = np.array([members[c][i] for c, i in zip(classes, within)], dtype=np.int64)
        images = np.stack([subset.images[o] for o in ordinals])
        out.append((ordinals, classes, np.unique(classes), images))
    return out


def multi_label_dataset(n=300, k=9, seed=6):
    rng = np.random.default_rng(seed)
    labels = [rng.choice(k, size=rng.integers(1, 4), replace=False) for _ in range(n)]
    images = rng.standard_normal((n, 3, 3, 2)).astype(np.float32)
    return Dataset.from_labels([f"m{i}" for i in range(n)], images, [sorted(l) for l in labels])


@pytest.mark.parametrize("split", [False, True], ids=["all-rows", "row-subset"])
def test_csr_sampler_equals_per_slot_reference(split):
    dataset = multi_label_dataset()
    rows = np.flatnonzero(np.arange(len(dataset)) % 4 != 1) if split else None
    expected = reference_batches(dataset, 50, 32, seed=21, rows=rows)
    index = build_index(dataset, rows=rows)
    gen = make_rng(21)
    for ordinals, targets, present, images in expected:
        batch = next_batch(index, 32, gen, dataset)
        np.testing.assert_array_equal(batch.ordinals, ordinals if rows is None else rows[ordinals])
        np.testing.assert_array_equal(batch.targets, targets)
        np.testing.assert_array_equal(batch.present_classes, present)
        assert batch.images.tobytes() == images.tobytes()


def test_class_marginal_is_uniform_despite_skewed_counts():
    # class sizes span three orders of magnitude: 1, 2, 5, ..., 1000
    sizes = [1, 2, 5, 10, 25, 75, 150, 300, 600, 1000]
    rng = np.random.default_rng(4)
    labels = [[c] for c, n_c in enumerate(sizes) for _ in range(n_c)]
    dataset = score_examples(rng.standard_normal((len(labels), 10)) ** 2, labels)
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
        members=np.array([], dtype=np.int64),
        offsets=np.array([0, 0]),
        counts=np.array([0]),
        active_classes=np.array([], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="no active classes"):
        next_batch(empty, 4, make_rng(0), score_examples(np.zeros((0, 1)), []))


def test_rng_helpers():
    assert RNG_ALGO == "numpy-pcg64"
    a, b = make_rng(7), make_rng(7)
    assert a.integers(0, 1 << 30, size=5).tolist() == b.integers(0, 1 << 30, size=5).tolist()
