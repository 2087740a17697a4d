"""Shared builders for the test suite."""

import numpy as np

from weaklearn.data import Dataset
from weaklearn.model import ModelConfig, ModelParams


def scorer_params(k: int, dtype: str = "f32") -> ModelParams:
    """Params whose dense logits equal the input pixels.

    Images of shape (1, 1, k) pass through an identity fc layer and an
    identity output matrix, so each example's score vector is exactly its
    pixel vector as long as pixels are >= 0 (the rectifier never clips).
    """
    cfg = ModelConfig(input_hwc=(1, 1, k), layers=[("fc", k)], embed_dim=k, dtype=dtype)
    np_dtype = cfg.np_dtype
    return ModelParams(
        config=cfg,
        weights=[np.eye(k, dtype=np_dtype)],
        biases=[np.zeros(k, dtype=np_dtype)],
        output_weights=np.eye(k, dtype=np_dtype),
    )


def score_examples(scores, labels_list) -> Dataset:
    """A Dataset whose images are raw score vectors for scorer_params."""
    scores = np.asarray(scores, dtype=np.float32)
    return Dataset.from_labels(
        [f"ex{i:04d}" for i in range(len(scores))],
        scores.reshape(len(scores), 1, 1, scores.shape[1]),
        [sorted(set(int(l) for l in labels)) for labels in labels_list],
    )


def random_single_label_dataset(n: int, k: int, rng: np.random.Generator) -> Dataset:
    """n tiny random images, each with one uniform random label."""
    labels = rng.integers(0, k, size=n)
    images = rng.standard_normal((n, 2, 2, 1)).astype(np.float32)
    return Dataset.from_labels([f"ex{i:04d}" for i in range(n)], images, labels[:, None])
