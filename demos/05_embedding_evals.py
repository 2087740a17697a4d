"""What the output-matrix columns know after training.

Trains briefly on synthetic data, then runs the embedding evaluations:
word prediction precision, a linear probe on frozen features, nearest
neighbors, analogies, rated similarity, and bilingual matching.
"""

import json
import tempfile

import numpy as np

from weaklearn.data import SynthConfig, generate_synthetic
from weaklearn.evaluate import (
    analogy_accuracy,
    dump_embeddings,
    extract_features,
    linear_probe,
    precision_at_k,
    spearman_similarity,
    translation_precision,
)
from weaklearn.model import ModelConfig
from weaklearn.trainer import TrainConfig, split_dataset, train

examples, dictionary, _ = generate_synthetic(
    SynthConfig(k=8, img_size=8, noise_sigma=1.0, n_examples=1200, seed=5)
)
model_cfg = ModelConfig(input_hwc=(8, 8, 1), layers=[("fc", 24)], embed_dim=24)
params, _ = train(TrainConfig(seed=0, epoch_size=2000, max_epochs=25, batch_size=64),
                  examples, model_cfg, k=dictionary.k)
val = examples[split_dataset(examples, 0.2)[1]]

report = precision_at_k(params, val, k=1)
print(f"word prediction: {report.metric} = {report.value:.3f} on {report.n_items} held-out examples")

features = extract_features(params, val)
labels = val.label_flat[val.label_offsets[:-1]]
probe, probe_report = linear_probe(features, labels, seed=0)
print(f"linear probe on frozen features: accuracy {probe_report.value:.3f} "
      f"(lambda {probe.lam:g})")

w = params.output_weights
words = dictionary.words
print(f"\nembedding columns: {w.shape[0]} dims x {w.shape[1]} words")

with tempfile.TemporaryDirectory() as tmp:
    neighbors_path = dump_embeddings(w, dictionary, f"{tmp}/emb.csv", n_neighbors=3)
    with open(neighbors_path) as fh:
        neighbors = json.load(fh)
print("nearest neighbors (cosine):")
for word in words[:4]:
    print(f"  {word} -> {neighbors[word]}")

# synthetic classes have no real analogy structure, so treat these as
# mechanics demos: the numbers mean "how often geometry happens to align"
questions = [(words[0], words[1], words[2], words[3]),
             (words[4], words[5], words[6], words[7])]
print(f"analogy accuracy: {analogy_accuracy(w, questions, dictionary).value:.2f} "
      f"on {len(questions)} questions")

rng = np.random.default_rng(3)
pairs = [(words[i], words[j], float(rng.uniform(0, 5)))
         for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]]
sim = spearman_similarity(w, pairs, dictionary)
print(f"spearman vs random ratings: {sim.value:+.2f} over {sim.n_items} pairs "
      "(near zero, as it should be)")

bi = [(words[i], words[i + 4]) for i in range(4)]
for direction in ("forward", "reverse"):
    t = translation_precision(w, bi, dictionary, direction=direction, k=1)
    print(f"translation {direction}: p@1 = {t.value:.2f} over {t.n_items} pairs")
print("\non real caption corpora these evaluations are the point; here they")
print("exercise the full reporting path end to end.")
