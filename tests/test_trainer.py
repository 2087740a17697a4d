"""SGD loop, lr schedule contract, sparse updates, and gradient checking."""

import math

import numpy as np
import pytest

from util import random_single_label_dataset, score_examples, scorer_params
from weaklearn import loss, trainer
from weaklearn.data import SynthConfig, generate_synthetic
from weaklearn.model import ModelConfig, forward, init_params, load_checkpoint, param_arrays, score_subset
from weaklearn.sampler import build_index, make_rng, next_batch
from weaklearn.trainer import (
    StepGrads,
    TrainConfig,
    TrainLog,
    _batch_grads,
    gradient_check,
    load_trainlog,
    save_trainlog,
    schedule_violations,
    sgd_step,
    split_dataset,
    train,
    validation_error,
)


def small_preset(n=300, k=6, seed=3, noise=0.0):
    cfg = SynthConfig(k=k, img_size=4, noise_sigma=noise, n_examples=n, seed=seed)
    examples, dictionary, _ = generate_synthetic(cfg)
    model_cfg = ModelConfig(
        input_hwc=examples.images.shape[1:], layers=[("fc", 16)], embed_dim=16
    )
    return examples, dictionary, model_cfg


def test_config_validation():
    with pytest.raises(ValueError, match="loss_kind"):
        TrainConfig(loss_kind="hinge")
    with pytest.raises(ValueError, match="full softmax requires"):
        TrainConfig(loss_kind="one_vs_all", full_softmax=True)
    with pytest.raises(ValueError, match="validation_fraction"):
        TrainConfig(validation_fraction=0.0)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(min_epochs_per_lr=0)


def test_sgd_step_zero_gradient_is_identity():
    params = scorer_params(4, dtype="f64")
    before = {name: arr.tobytes() for name, arr in param_arrays(params)}
    grads = StepGrads(theta=[(np.zeros((4, 4)), np.zeros(4))], w_cols=np.zeros((4, 2)))
    sgd_step(params, grads, np.array([0, 2]), lr=0.5)
    for name, arr in param_arrays(params):
        assert arr.tobytes() == before[name]


def test_sgd_step_touches_only_selected_columns():
    params = scorer_params(5, dtype="f64")
    w_before = params.output_weights.copy()
    g = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    grads = StepGrads(theta=[(np.zeros((5, 5)), np.zeros(5))], w_cols=g)
    sgd_step(params, grads, np.array([3]), lr=1.0)
    np.testing.assert_array_equal(params.output_weights[:, 3], w_before[:, 3] - g[:, 0])
    untouched = [0, 1, 2, 4]
    assert params.output_weights[:, untouched].tobytes() == w_before[:, untouched].tobytes()


def test_sgd_step_matches_dense_update_oracle():
    rng = np.random.default_rng(14)
    params = scorer_params(8, dtype="f64")
    params.output_weights = rng.standard_normal((8, 8))
    shadow = params.output_weights.copy()
    present = np.array([1, 4, 6])
    w_cols = rng.standard_normal((8, 3))
    theta = [(rng.standard_normal((8, 8)), rng.standard_normal(8))]
    sgd_step(params, StepGrads(theta=theta, w_cols=w_cols), present, lr=0.3)

    dense = np.zeros((8, 8))
    dense[:, present] = w_cols
    shadow -= 0.3 * dense
    np.testing.assert_array_equal(params.output_weights, shadow)


def test_sgd_step_validates_shapes():
    params = scorer_params(4, dtype="f64")
    grads = StepGrads(theta=[(np.zeros((3, 3)), np.zeros(3))], w_cols=np.zeros((4, 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(params, grads, np.array([0]), lr=0.1)
    grads = StepGrads(theta=[(np.zeros((4, 4)), np.zeros(4))], w_cols=np.zeros((4, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(params, grads, np.array([0]), lr=0.1)


def test_validation_error_perfect_and_adversarial():
    k = 20
    labels = [[i % k] for i in range(200)]
    perfect = np.zeros((200, k), dtype=np.float32)
    for i, lab in enumerate(labels):
        perfect[i, lab[0]] = 10.0
    dataset = score_examples(perfect, labels)
    params = scorer_params(k)
    assert validation_error(params, dataset, k=1) == 0.0
    # default k is min(10, K-1); a single label caps precision at 1/k
    assert abs(validation_error(params, dataset) - 0.9) < 1e-12

    adversarial = 10.0 - perfect  # true class strictly smallest
    dataset_bad = score_examples(adversarial, labels)
    assert validation_error(params, dataset_bad, k=1) == 1.0


def test_validation_error_chance_level():
    rng = np.random.default_rng(15)
    k, n = 20, 10_000
    scores = rng.uniform(0.1, 1.0, size=(n, k))
    labels = [[int(l)] for l in rng.integers(0, k, size=n)]
    err = validation_error(scorer_params(k), score_examples(scores, labels), k=1)
    assert abs(err - 0.95) < 0.02


def test_split_dataset_is_stable_and_disjoint():
    rng = np.random.default_rng(16)
    dataset = random_single_label_dataset(500, 4, rng)
    train_a, val_a = split_dataset(dataset, 0.2)
    reversed_ids = dataset.ids[::-1]
    train_b, val_b = split_dataset(dataset[::-1], 0.2)
    assert set(dataset.ids[train_a]).isdisjoint(set(dataset.ids[val_a]))
    assert set(dataset.ids[train_a]) == set(reversed_ids[train_b])
    assert set(dataset.ids[val_a]) == set(reversed_ids[val_b])
    assert 0.1 < len(val_a) / len(dataset) < 0.3
    assert np.all(np.diff(train_a) > 0) and np.all(np.diff(val_a) > 0)

    lonely = random_single_label_dataset(1, 2, rng)
    with pytest.raises(ValueError, match="empty train or validation split"):
        split_dataset(lonely, 0.2)


def test_train_is_bitwise_deterministic():
    examples, dictionary, model_cfg = small_preset()
    cfg = TrainConfig(seed=11, epoch_size=600, max_epochs=4, batch_size=32)
    params_a, log_a = train(cfg, examples, model_cfg, k=dictionary.k)
    params_b, log_b = train(cfg, examples, model_cfg, k=dictionary.k)
    for (_, arr_a), (_, arr_b) in zip(param_arrays(params_a), param_arrays(params_b)):
        assert arr_a.tobytes() == arr_b.tobytes()
    assert [r["val_error"] for r in log_a.records] == [r["val_error"] for r in log_b.records]

    params_c, _ = train(TrainConfig(seed=12, epoch_size=600, max_epochs=4, batch_size=32),
                        examples, model_cfg, k=dictionary.k)
    assert params_c.output_weights.tobytes() != params_a.output_weights.tobytes()


def test_lr_below_floor_runs_zero_steps():
    examples, dictionary, model_cfg = small_preset()
    cfg = TrainConfig(lr_init=1e-9, lr_floor=1e-6, max_epochs=5)
    params, log = train(cfg, examples, model_cfg, k=dictionary.k)
    assert log.records == []
    reference = init_params(model_cfg, dictionary.k, np.random.SeedSequence(cfg.seed).spawn(2)[0])
    assert params.output_weights.tobytes() == reference.output_weights.tobytes()


def test_training_loss_decreases_on_noiseless_data():
    examples, dictionary, model_cfg = small_preset(n=400, noise=0.0)
    cfg = TrainConfig(seed=2, epoch_size=1000, max_epochs=8, batch_size=50)
    _, log = train(cfg, examples, model_cfg, k=dictionary.k)
    losses = [r["train_loss_mean"] for r in log.records]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    assert drops >= 0.8 * (len(losses) - 1)
    assert losses[-1] < losses[0] / 2


def test_one_vs_all_trains_through_single_class_batches():
    examples, dictionary, model_cfg = small_preset(n=200, k=5)
    # at batch size 2 many batches draw one class twice, which is then positive in every row
    cfg = TrainConfig(batch_size=2, epoch_size=100, max_epochs=2, loss_kind="one_vs_all", seed=4)
    _, log = train(cfg, examples, model_cfg, k=dictionary.k)
    assert len(log.records) == 2
    assert all(math.isfinite(r["train_loss_mean"]) for r in log.records)


def test_train_writes_checkpoint_with_rng_state(tmp_path):
    examples, dictionary, model_cfg = small_preset()
    path = str(tmp_path / "run.wlckpt")
    cfg = TrainConfig(seed=5, epoch_size=300, max_epochs=2, batch_size=30)
    params, _ = train(cfg, examples, model_cfg, k=dictionary.k, checkpoint_path=path)
    loaded, meta = load_checkpoint(path)
    assert loaded.output_weights.tobytes() == params.output_weights.astype(np.float32).tobytes()
    assert meta["rng_algo"] == "numpy-pcg64"
    assert meta["step"] == 2 * math.ceil(300 / 30)
    assert meta["rng_state"]["bit_generator"] == "PCG64"


def test_non_finite_loss_stops_training_without_checkpoint(tmp_path):
    examples, dictionary, _ = generate_synthetic(SynthConfig())
    model_cfg = ModelConfig(
        input_hwc=examples.images.shape[1:], layers=[("fc", 64), ("fc", 64)], embed_dim=64
    )
    ckpt = tmp_path / "checkpoint.wlckpt"
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=r"epoch 1, step \d+ of 79"):
        train(TrainConfig(seed=0, lr_init=10.0), examples, model_cfg, k=dictionary.k, checkpoint_path=str(ckpt))
    assert not ckpt.exists()


def test_trained_model_beats_chance_quickly():
    examples, dictionary, model_cfg = small_preset(n=600, noise=0.3)
    cfg = TrainConfig(seed=9, epoch_size=2000, max_epochs=5, batch_size=64)
    params, _ = train(cfg, examples, model_cfg, k=dictionary.k)
    val = examples[split_dataset(examples, 0.2)[1]]
    assert validation_error(params, val, k=1) < 0.2  # chance would be ~0.83


def clean_records():
    records = []
    val = 0.5
    for epoch in range(1, 23):
        if epoch <= 11:
            lr, val = 0.1, 0.5 - 0.01 * epoch
        elif epoch == 12:
            lr, val = 0.1, 0.45  # strict increase after 11 epochs at 0.1
        else:
            lr, val = 0.05, 0.40 - 0.001 * epoch
        records.append({"epoch": epoch, "lr": lr, "train_loss_mean": 1.0, "val_error": val})
    return records


def test_schedule_violations_accepts_clean_log():
    cfg = TrainConfig(max_epochs=22)
    assert schedule_violations(clean_records(), cfg) == []


def test_schedule_violations_flags_bad_logs():
    cfg = TrainConfig(max_epochs=22)

    early = clean_records()
    for r in early[4:]:
        r["lr"] = 0.05  # halved after only 4 epochs
    early[3]["val_error"] = 0.9  # increase is present, timing is not
    problems = schedule_violations(early, cfg)
    assert any("after 4 epochs" in p for p in problems)

    no_increase = clean_records()
    no_increase[11]["val_error"] = 0.0  # halving happens while error still falls
    assert any("without val_error increase" in p for p in schedule_violations(no_increase, cfg))

    bad_factor = clean_records()
    for r in bad_factor[11:]:
        if r["lr"] == 0.05:
            r["lr"] = 0.04
    assert any("not a halving" in p for p in schedule_violations(bad_factor, cfg))

    rising = clean_records()
    rising[15]["lr"] = 0.2
    assert any("lr increased" in p for p in schedule_violations(rising, cfg))

    truncated = clean_records()[:7]
    assert any("ended before max_epochs" in p for p in schedule_violations(truncated, cfg))


def test_real_run_satisfies_schedule_contract():
    examples, dictionary, model_cfg = small_preset(n=400, noise=0.8)
    cfg = TrainConfig(seed=4, epoch_size=500, max_epochs=12, batch_size=25, min_epochs_per_lr=3)
    _, log = train(cfg, examples, model_cfg, k=dictionary.k)
    assert schedule_violations(log.records, cfg) == []
    lrs = [r["lr"] for r in log.records]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


def test_trainlog_round_trip(tmp_path):
    log = TrainLog(records=clean_records())
    path = str(tmp_path / "log.jsonl")
    save_trainlog(log, path)
    assert load_trainlog(path).records == log.records


def test_gradient_check_both_losses():
    cfg = ModelConfig(
        input_hwc=(6, 6, 1),
        layers=[("conv", 3, 4), ("fc", 16), ("fc", 8)],
        embed_dim=8,
        dtype="f64",
    )
    assert gradient_check(cfg, "multiclass", seed=1) < 1e-5
    assert gradient_check(cfg, "one_vs_all", seed=1) < 1e-5
    # two stacked convs: on zero biases an all-zero pooled patch sat on the rectifier's kink
    stacked = ModelConfig(
        input_hwc=(6, 6, 1),
        layers=[("conv", 2, 2), ("conv", 2, 2), ("fc", 5), ("fc", 4)],
        embed_dim=4,
        dtype="f64",
    )
    errors = [gradient_check(stacked, "multiclass", seed=seed) for seed in range(8)]
    assert max(errors) < 1e-5, errors
    with pytest.raises(ValueError, match="requires dtype f64"):
        gradient_check(ModelConfig(input_hwc=(2, 2, 1), layers=[("fc", 2)], embed_dim=2), "multiclass", 0)


@pytest.mark.parametrize("loss_kind", ["multiclass", "one_vs_all"])
def test_gradient_check_catches_a_wrong_step_gradient(monkeypatch, loss_kind):
    # the step's loss is right but its gradient at the positive logits is scaled by 0.9
    def sampled(logits, positive_position):
        lg = loss.sampled_multiclass_loss(logits, positive_position)
        lg.d_logits[np.arange(len(positive_position)), positive_position] *= 0.9
        return lg

    def ova(logits, y, n_total, n_pos):
        lg = loss.ova_loss(logits, y, n_total, n_pos)
        lg.d_logits[y > 0] *= 0.9
        return lg

    monkeypatch.setattr(trainer, "sampled_multiclass_loss", sampled)
    monkeypatch.setattr(trainer, "ova_loss", ova)
    cfg = ModelConfig(input_hwc=(6, 6, 1), layers=[("conv", 3, 4), ("fc", 16), ("fc", 8)], embed_dim=8, dtype="f64")
    assert gradient_check(cfg, loss_kind, seed=1) > 1e-2


def test_degenerate_zero_model_has_exactly_zero_gradients():
    from weaklearn.loss import multiclass_loss
    from weaklearn.model import backward, score_subset_backward

    cfg = ModelConfig(input_hwc=(1, 1, 2), layers=[("fc", 3), ("fc", 2)], embed_dim=2, dtype="f64")
    params = init_params(cfg, k=3, seed=0)
    for arr in params.weights + params.biases + [params.output_weights]:
        arr[...] = 0.0
    images = np.zeros((2, 1, 1, 2))
    y = np.zeros((2, 3))
    y[:, 0] = 1.0
    classes = np.arange(3)

    e, trace = forward(params, images)
    lg = multiclass_loss(score_subset(params, e, classes), y)
    d_e, d_cols = score_subset_backward(params, e, classes, lg.d_logits)
    theta = backward(params, trace, d_e)
    assert not d_cols.any()
    assert all(not dw.any() and not db.any() for dw, db in theta)

    # central differences agree exactly: the zero output matrix makes the
    # loss constant in every parameter
    h = 1e-4
    for _, arr in param_arrays(params):
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + h
            e_up, _ = forward(params, images)
            up = multiclass_loss(score_subset(params, e_up, classes), y).loss
            flat[idx] = saved - h
            e_dn, _ = forward(params, images)
            down = multiclass_loss(score_subset(params, e_dn, classes), y).loss
            flat[idx] = saved
            assert up == down
