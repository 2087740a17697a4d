"""SGD loop with validation-driven learning-rate halving and sparse output updates.

The learning rate starts at 0.1, halves when validation error strictly
increases after at least min_epochs_per_lr epochs at the current rate, and
training stops once the rate falls below lr_floor or max_epochs is reached.
Only output-matrix columns of classes present in a batch are ever touched.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, stable_fraction
from .evaluate import precision_at_k
from .loss import ova_loss, sampled_multiclass_loss
from .model import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    param_arrays,
    save_checkpoint,
    score_subset,
    score_subset_backward,
)
from .sampler import RNG_ALGO, Batch, build_index, make_rng, next_batch

LOSS_KINDS = ("multiclass", "one_vs_all")


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr_init: float = 0.1
    lr_floor: float = 1e-6
    min_epochs_per_lr: int = 10
    epoch_size: int = 10_000
    max_epochs: int = 200
    loss_kind: str = "multiclass"
    seed: int = 0
    validation_fraction: float = 0.2
    full_softmax: bool = False  # score every class instead of batch-present ones

    def __post_init__(self):
        if not (0 < self.lr_init < math.inf and 0 < self.lr_floor < math.inf):
            raise ValueError("learning rates must be finite and positive")
        if self.batch_size < 1 or self.epoch_size < 1 or self.max_epochs < 0:
            raise ValueError("batch_size, epoch_size and max_epochs must be positive")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.min_epochs_per_lr < 1:
            raise ValueError("min_epochs_per_lr must be positive")
        if self.full_softmax and self.loss_kind != "multiclass":
            raise ValueError("full softmax requires the multiclass loss")


@dataclass
class TrainLog:
    records: list[dict] = field(default_factory=list)


@dataclass
class StepGrads:
    theta: list[tuple[np.ndarray, np.ndarray]]  # (d_weight, d_bias) per layer
    w_cols: np.ndarray  # (E, |present_classes|)


def split_dataset(dataset: Dataset, validation_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, validation rows), ascending, split by stable hash of example id
    and so independent of file order."""
    is_val = np.array([stable_fraction(i, salt="val-split") for i in dataset.ids.tolist()]) < validation_fraction
    if is_val.all() or not is_val.any():
        raise ValueError("empty train or validation split")
    return np.flatnonzero(~is_val), np.flatnonzero(is_val)


def _batch_grads(params: ModelParams, batch: Batch, cfg: TrainConfig, k: int):
    """Loss, gradients and scored classes for one batch; W[:, classes] is gathered once, for both passes."""
    if cfg.full_softmax:
        classes = np.arange(k, dtype=np.int64)
    else:
        classes = batch.present_classes
    w_cols = params.output_weights[:, classes]
    e, trace = forward(params, batch.images)
    logits = score_subset(w_cols, e)
    if cfg.loss_kind == "multiclass":
        lg = sampled_multiclass_loss(logits, np.searchsorted(classes, batch.targets))
    else:
        positive = classes[None, :] == batch.targets[:, None]
        lg = ova_loss(logits, positive.astype(logits.dtype), len(batch.targets), positive.sum(axis=0))
    d_e, d_w_cols = score_subset_backward(w_cols, e, lg.d_logits)
    theta = backward(params, trace, d_e)
    return lg.loss, StepGrads(theta=theta, w_cols=d_w_cols), classes


def sgd_step(params: ModelParams, grads: StepGrads, present_classes: np.ndarray, lr: float) -> ModelParams:
    """In-place plain SGD; only the present-class columns of W are written."""
    if len(grads.theta) != len(params.weights):
        raise ValueError("shape mismatch")
    if grads.w_cols.shape != (params.output_weights.shape[0], present_classes.size):
        raise ValueError("shape mismatch")
    for (dw, db), w, b in zip(grads.theta, params.weights, params.biases):
        if dw.shape != w.shape or db.shape != b.shape:
            raise ValueError("shape mismatch")
        w -= lr * dw
        b -= lr * db
    params.output_weights[:, present_classes] -= lr * grads.w_cols
    return params


def validation_error(params: ModelParams, val_dataset: Dataset, k: int | None = None) -> float:
    """1 - precision@k on the validation set; k defaults to min(10, K-1)."""
    if k is None:
        k = max(1, min(10, params.k - 1))
    return 1.0 - precision_at_k(params, val_dataset, k).value


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    model_cfg: ModelConfig,
    k: int | None = None,
    checkpoint_path: str | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Run the SGD loop; deterministic given cfg.seed.

    k defaults to 1 + the largest label in the dataset. When
    checkpoint_path is given the final state is saved there. A non-finite
    step loss, or a non-finite parameter at the end of an epoch, raises
    FloatingPointError naming the epoch and step, and no checkpoint is
    written.
    """
    if k is None:
        k = 1 + int(dataset.label_flat.max())
    train_rows, val_rows = split_dataset(dataset, cfg.validation_fraction)
    init_ss, sample_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(model_cfg, k, init_ss)
    # column-major, so each step's gather and scatter of W[:, classes] reads and writes contiguous columns
    params.output_weights = np.asfortranarray(params.output_weights)
    gen = make_rng(sample_ss)
    log = TrainLog()
    lr = cfg.lr_init
    step_count = 0
    if lr >= cfg.lr_floor and cfg.max_epochs > 0:
        index = build_index(dataset, num_classes=k, rows=train_rows)
        val_set = dataset[val_rows]
        steps_per_epoch = math.ceil(cfg.epoch_size / cfg.batch_size)
        prev_val = None
        epochs_at_lr = 0
        for epoch in range(1, cfg.max_epochs + 1):
            tick = time.perf_counter()
            loss_sum = 0.0
            for step in range(1, steps_per_epoch + 1):
                batch = next_batch(index, cfg.batch_size, gen, dataset)
                loss_val, grads, classes = _batch_grads(params, batch, cfg, k)
                if not math.isfinite(loss_val):
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch}, step {step} of {steps_per_epoch}"
                    )
                sgd_step(params, grads, classes, lr)
                loss_sum += loss_val
            step_count += steps_per_epoch
            bad = [name for name, arr in param_arrays(params) if not np.isfinite(arr).all()]
            if bad:
                raise FloatingPointError(
                    f"non-finite parameters {bad} at the end of epoch {epoch}, "
                    f"step {steps_per_epoch} of {steps_per_epoch}"
                )
            val_err = validation_error(params, val_set)
            epochs_at_lr += 1
            log.records.append(
                {
                    "epoch": epoch,
                    "lr": lr,
                    "train_loss_mean": loss_sum / steps_per_epoch,
                    "val_error": val_err,
                    "wall_ms": (time.perf_counter() - tick) * 1000.0,
                }
            )
            if prev_val is not None and val_err > prev_val and epochs_at_lr >= cfg.min_epochs_per_lr:
                lr /= 2.0
                epochs_at_lr = 0
            prev_val = val_err
            if lr < cfg.lr_floor:
                break
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            params,
            rng_algo=RNG_ALGO,
            rng_state=json.loads(json.dumps(gen.bit_generator.state, default=int)),
            step=step_count,
            lr=lr,
        )
    return params, log


def save_trainlog(log: TrainLog, path: str) -> None:
    """One JSON object per epoch record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_trainlog(path: str) -> TrainLog:
    log = TrainLog()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                log.records.append(json.loads(line))
    return log


def schedule_violations(records: list[dict], cfg: TrainConfig) -> list[str]:
    """Machine-check the learning-rate schedule contract from the log alone.

    Verifies: lr sequence is lr_init * 2**(-j) with j non-decreasing; every
    halving is preceded by a strict validation-error increase after at
    least min_epochs_per_lr epochs at the prior rate; and the run ended at
    max_epochs or because the rate fell below lr_floor.
    """
    problems = []
    if not records:
        if cfg.lr_init >= cfg.lr_floor and cfg.max_epochs > 0:
            problems.append("empty log for a runnable config")
        return problems
    if records[0]["lr"] != cfg.lr_init:
        problems.append("first epoch lr differs from lr_init")
    epochs_at_lr = 1
    for i in range(1, len(records)):
        prev, cur = records[i - 1], records[i]
        if cur["lr"] > prev["lr"]:
            problems.append(f"epoch {cur['epoch']}: lr increased")
        elif cur["lr"] == prev["lr"]:
            epochs_at_lr += 1
        else:
            if not math.isclose(cur["lr"], prev["lr"] / 2.0, rel_tol=1e-12):
                problems.append(f"epoch {cur['epoch']}: lr step is not a halving")
            if i < 2 or not prev["val_error"] > records[i - 2]["val_error"]:
                problems.append(f"epoch {cur['epoch']}: halving without val_error increase")
            if epochs_at_lr < cfg.min_epochs_per_lr:
                problems.append(f"epoch {cur['epoch']}: halving after {epochs_at_lr} epochs")
            epochs_at_lr = 1
    last = records[-1]
    ended_by_epochs = len(records) == cfg.max_epochs
    final_halved = (
        len(records) >= 2
        and last["val_error"] > records[-2]["val_error"]
        and epochs_at_lr >= cfg.min_epochs_per_lr
        and last["lr"] / 2.0 < cfg.lr_floor
    )
    if not ended_by_epochs and not final_halved:
        problems.append("run ended before max_epochs without the lr hitting the floor")
    return problems


def gradient_check(model_cfg: ModelConfig, loss_kind: str, seed) -> float:
    """Compare the training step's analytic gradients against central finite differences.

    Runs _batch_grads on one random batch of 4 single-target rows through a
    small model (a few hundred parameters) with random biases. W's gradient
    is the step's column gradient scattered into the full matrix, so the
    columns of classes absent from the batch read exactly 0 both ways.
    Perturbs every single parameter by +-1e-4 in 64-bit and returns the max
    relative error with denominator max(|analytic|, |numeric|, 1e-8).
    """
    if model_cfg.dtype != "f64":
        raise ValueError("gradient check requires dtype f64")
    cfg = TrainConfig(loss_kind=loss_kind, batch_size=4)
    k = 10
    rng = np.random.default_rng(seed)
    params = init_params(model_cfg, k, seed)
    if params.n_params() > 1000:
        raise ValueError("gradient check model exceeds 1000 parameters")
    # init's zero biases can put a pre-activation exactly on the rectifier's
    # kink, where central differences disagree with the analytic gradient
    for bias in params.biases:
        bias[...] = rng.uniform(-0.5, 0.5, size=bias.shape)
    images = rng.standard_normal((cfg.batch_size, *model_cfg.input_hwc))
    targets = rng.integers(0, k, size=cfg.batch_size)
    batch = Batch(images, targets, present_classes=np.unique(targets), ordinals=np.arange(cfg.batch_size))

    _, grads, classes = _batch_grads(params, batch, cfg, k)
    d_w = np.zeros_like(params.output_weights)
    d_w[:, classes] = grads.w_cols
    analytic = [g for pair in grads.theta for g in pair] + [d_w]

    h = 1e-4
    worst = 0.0
    for (_, arr), grad in zip(param_arrays(params), analytic):
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + h
            up = _batch_grads(params, batch, cfg, k)[0]
            flat[idx] = saved - h
            down = _batch_grads(params, batch, cfg, k)[0]
            flat[idx] = saved
            numeric = (up - down) / (2 * h)
            a = float(grad.reshape(-1)[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
