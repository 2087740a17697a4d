"""The synthetic Zipf benchmark: what the generator produces and how hard it is.

Generates a small image-caption dataset, shows the long-tailed class
histogram, and computes the nearest-prototype ceiling that an oracle with
access to the true class templates would reach.
"""

import tempfile

import numpy as np

from weaklearn.data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    nearest_prototype_precision,
    write_captions_jsonl,
    write_tensor_container,
)
from weaklearn.textpipe import save_dictionary

cfg = SynthConfig(k=12, img_size=8, noise_sigma=0.8, n_examples=3000, seed=42)
examples, dictionary, prototypes = generate_synthetic(cfg)
print(f"generated {len(examples)} examples, K={dictionary.k}, image {cfg.img_size}x{cfg.img_size}")

counts = np.bincount(examples.label_flat, minlength=dictionary.k)
print("\nclass histogram (Zipf exponent 1.0 gives the long tail)")
for word, n in zip(dictionary.words, counts):
    print(f"  {word:4} {'#' * max(1, n // 25)} {n}")

ceiling = nearest_prototype_precision(examples, prototypes)
print(f"\nnearest-prototype precision at noise {cfg.noise_sigma}: {ceiling:.3f}")
for sigma in (0.0, 2.0, 6.0):
    noisy = generate_synthetic(SynthConfig(k=12, img_size=8, noise_sigma=sigma,
                                           n_examples=1500, seed=42))
    p = nearest_prototype_precision(noisy[0], noisy[2])
    print(f"nearest-prototype precision at noise {sigma}: {p:.3f}")
print("a trained model cannot beat this oracle by much; it anchors what")
print("any precision number on this data means.")

# the on-disk form round-trips exactly
with tempfile.TemporaryDirectory() as tmp:
    ids = examples.ids.tolist()
    rows = [{"id": ex_id, "caption": " ".join(dictionary.words[l] for l in examples.labels_of(i)),
             "image": ex_id} for i, ex_id in enumerate(ids)]
    write_captions_jsonl(f"{tmp}/captions.jsonl", rows)
    write_tensor_container(f"{tmp}/tensors.bin", dict(zip(ids, examples.images)))
    save_dictionary(dictionary, f"{tmp}/dict.tsv")
    reloaded, dropped = load_dataset(f"{tmp}/captions.jsonl", f"{tmp}/tensors.bin", dictionary)
    same = (np.array_equal(examples.images, reloaded.images)
            and np.array_equal(examples.label_offsets, reloaded.label_offsets)
            and np.array_equal(examples.label_flat, reloaded.label_flat))
print(f"\nfile round trip: {len(reloaded)} examples back ({dropped} dropped), bitwise equal: {same}")
