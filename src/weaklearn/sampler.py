"""Class-balanced batch sampling: uniform over classes, then uniform within class.

Every slot carries a single positive target, even when the drawn example has
more labels; the extra labels count as negatives for that slot. This flattens
a Zipf-skewed class distribution into a uniform target distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

RNG_ALGO = "numpy-pcg64"


def make_rng(seed) -> np.random.Generator:
    """Seedable generator behind the RNG_ALGO identifier."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class ClassIndex:
    """CSR inverted index: members[offsets[k] : offsets[k + 1]] are the
    ascending dataset ordinals of the examples labeled k."""

    members: np.ndarray
    offsets: np.ndarray  # (K + 1,)
    counts: np.ndarray  # N_k per class
    active_classes: np.ndarray  # classes with N_k > 0, ascending


@dataclass
class Batch:
    images: np.ndarray  # (B, H, W, C)
    targets: np.ndarray  # (B,) single positive class per slot
    present_classes: np.ndarray  # sorted unique targets
    ordinals: np.ndarray  # (B,) dataset ordinals of the drawn examples


def build_index(dataset: Dataset, num_classes: int | None = None, rows: np.ndarray | None = None) -> ClassIndex:
    """Build the exact inverted index over the labels of the given row ordinals (default all).

    Members are ordinals into the whole dataset, so a split indexes its
    rows without copying their images.
    """
    owner = np.repeat(np.arange(len(dataset)), np.diff(dataset.label_offsets))
    labels = dataset.label_flat
    if rows is not None:
        keep = np.isin(owner, rows)
        owner, labels = owner[keep], labels[keep]
    if labels.size == 0:
        raise ValueError("empty dataset")
    if num_classes is None:
        num_classes = 1 + int(labels.max())
    elif labels.max() >= num_classes:
        raise ValueError(f"label outside the {num_classes} classes")
    # owners ascend, so a stable sort keeps each class's members ascending
    members = owner[np.argsort(labels, kind="stable")]
    counts = np.bincount(labels, minlength=num_classes)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return ClassIndex(
        members=members,
        offsets=offsets,
        counts=counts,
        active_classes=np.flatnonzero(counts > 0).astype(np.int64),
    )


def next_batch(
    index: ClassIndex,
    batch_size: int,
    rng: np.random.Generator,
    dataset: Dataset,
) -> Batch:
    """Draw one class-balanced batch; advances rng in place.

    Per slot, independently: class ~ Uniform(active classes), then example
    ~ Uniform(members of that class), both with replacement.
    """
    active = index.active_classes
    if active.size == 0:
        raise ValueError("no active classes")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    classes = active[rng.integers(0, active.size, size=batch_size)]
    within = rng.integers(0, index.counts[classes])
    ordinals = index.members[index.offsets[classes] + within]
    return Batch(
        images=dataset.images.take(ordinals, axis=0),
        targets=classes,
        present_classes=np.unique(classes),
        ordinals=ordinals,
    )
