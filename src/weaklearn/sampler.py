"""Class-balanced batch sampling: uniform over classes, then uniform within class.

Every slot carries a single positive target, even when the drawn example has
more labels; the extra labels count as negatives for that slot. This flattens
a Zipf-skewed class distribution into a uniform target distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Example

RNG_ALGO = "numpy-pcg64"


def make_rng(seed) -> np.random.Generator:
    """Seedable generator behind the RNG_ALGO identifier."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class ClassIndex:
    """Inverted index: members[k] lists the ordinals of examples labeled k."""

    members: list[np.ndarray]
    counts: np.ndarray  # N_k per class
    active_classes: np.ndarray  # classes with N_k > 0, ascending


@dataclass
class Batch:
    images: np.ndarray  # (B, H, W, C)
    targets: np.ndarray  # (B,) single positive class per slot
    present_classes: np.ndarray  # sorted unique targets
    ordinals: np.ndarray  # (B,) dataset ordinals of the drawn examples


def build_index(dataset: list[Example], num_classes: int | None = None) -> ClassIndex:
    """Build the exact inverted index over example labels."""
    if not dataset:
        raise ValueError("empty dataset")
    if num_classes is None:
        num_classes = 1 + max(int(ex.labels.max()) for ex in dataset)
    buckets: list[list[int]] = [[] for _ in range(num_classes)]
    for ordinal, ex in enumerate(dataset):
        for label in ex.labels:
            buckets[int(label)].append(ordinal)
    members = [np.array(b, dtype=np.int64) for b in buckets]
    counts = np.array([len(b) for b in buckets], dtype=np.int64)
    return ClassIndex(
        members=members,
        counts=counts,
        active_classes=np.flatnonzero(counts > 0).astype(np.int64),
    )


def next_batch(
    index: ClassIndex,
    batch_size: int,
    rng: np.random.Generator,
    dataset: list[Example],
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
    ordinals = np.array(
        [index.members[c][i] for c, i in zip(classes, within)], dtype=np.int64
    )
    images = np.stack([dataset[o].image for o in ordinals])
    return Batch(
        images=images,
        targets=classes.astype(np.int64),
        present_classes=np.unique(classes).astype(np.int64),
        ordinals=ordinals,
    )
