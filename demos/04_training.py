"""One full training run, watched through its log.

Trains the two-layer default model on a noisy synthetic preset, prints the
epoch-by-epoch schedule, verifies the learning-rate contract mechanically,
and round-trips the checkpoint.
"""

import tempfile

import numpy as np

from weaklearn.data import SynthConfig, generate_synthetic
from weaklearn.model import ModelConfig, load_checkpoint
from weaklearn.trainer import TrainConfig, schedule_violations, split_dataset, train, validation_error

examples, dictionary, _ = generate_synthetic(
    SynthConfig(k=10, img_size=8, noise_sigma=4.0, n_examples=1500, seed=19)
)
model_cfg = ModelConfig(input_hwc=(8, 8, 1), layers=[("fc", 32), ("fc", 32)], embed_dim=32)
cfg = TrainConfig(seed=1, epoch_size=3000, max_epochs=40, batch_size=64, min_epochs_per_lr=5)

with tempfile.TemporaryDirectory() as tmp:
    ckpt_path = f"{tmp}/demo.wlckpt"
    params, log = train(cfg, examples, model_cfg, k=dictionary.k, checkpoint_path=ckpt_path)

    print("epoch  lr        train_loss  val_error")
    for r in log.records:
        marker = ""
        i = r["epoch"] - 1
        if i > 0 and r["lr"] < log.records[i - 1]["lr"]:
            marker = "  <- halved after val error rose"
        print(f"{r['epoch']:5d}  {r['lr']:.2e}  {r['train_loss_mean']:10.4f}  "
              f"{r['val_error']:.4f}{marker}")

    print("\nval_error hovers near 0.889 by construction: it is one minus")
    print("precision@9, and a single-label example can fill at most one of")
    print("nine slots. The jitter above that floor is what drives halving.")

    problems = schedule_violations(log.records, cfg)
    print(f"schedule contract violations: {problems if problems else 'none'}")

    val = examples[split_dataset(examples, cfg.validation_fraction)[1]]
    print(f"final val error at k=1: {validation_error(params, val, k=1):.4f} "
          f"(chance would be {1 - 1 / dictionary.k:.2f})")

    loaded, meta = load_checkpoint(ckpt_path)
    same = all(
        np.array_equal(a, b)
        for a, b in zip(params.weights + [params.output_weights],
                        loaded.weights + [loaded.output_weights])
    )
    print(f"checkpoint restores bitwise: {same}; saved at step {meta['step']} "
          f"with lr {meta['lr']} and the sampler state for exact resumption")
