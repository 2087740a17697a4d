"""Backbone forward/backward, initialization, and the checkpoint format."""

import numpy as np
import pytest

from weaklearn.model import (
    ModelConfig,
    ModelParams,
    _im2col,
    backward,
    forward,
    init_params,
    load_checkpoint,
    param_arrays,
    save_checkpoint,
    score_subset,
    score_subset_backward,
)


def small_conv_config(dtype="f64"):
    return ModelConfig(
        input_hwc=(6, 6, 2),
        layers=[("conv", 3, 3), ("fc", 7), ("fc", 5)],
        embed_dim=5,
        dtype=dtype,
    )


def reference_forward(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """Straight-line re-implementation with explicit loops; no shared code paths."""
    x = np.asarray(images, dtype=np.float64)
    for layer, w, b in zip(params.config.layers, params.weights, params.biases):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if layer[0] == "conv":
            ks = layer[1]
            n, h, wd, _ = x.shape
            ho, wo, cout = h - ks + 1, wd - ks + 1, w.shape[-1]
            z = np.zeros((n, ho, wo, cout))
            for img in range(n):
                for i in range(ho):
                    for j in range(wo):
                        patch = x[img, i : i + ks, j : j + ks, :]
                        for co in range(cout):
                            z[img, i, j, co] = (patch * w[:, :, :, co]).sum() + b[co]
            a = np.maximum(z, 0)
            if ho >= 2 and wo >= 2:
                hp, wp = ho // 2, wo // 2
                pooled = np.zeros((n, hp, wp, cout))
                for i in range(hp):
                    for j in range(wp):
                        window = a[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, :]
                        pooled[:, i, j, :] = window.max(axis=(1, 2))
                a = pooled
            x = a
        else:
            if x.ndim == 4:
                x = x.reshape(x.shape[0], -1)
            x = np.maximum(x @ w + b, 0)
    return x


def test_init_is_deterministic_with_zero_biases():
    cfg = small_conv_config()
    a = init_params(cfg, k=9, seed=21)
    b = init_params(cfg, k=9, seed=21)
    for (_, arr_a), (_, arr_b) in zip(param_arrays(a), param_arrays(b)):
        assert arr_a.tobytes() == arr_b.tobytes()
    assert all(not bias.any() for bias in a.biases)
    assert init_params(cfg, k=9, seed=22).output_weights.tobytes() != b.output_weights.tobytes()


def test_init_respects_fan_based_bounds():
    cfg = ModelConfig(input_hwc=(1, 1, 128), layers=[("fc", 128)], embed_dim=128)
    params = init_params(cfg, k=100, seed=0)
    w = params.weights[0]
    a = np.sqrt(6.0 / (128 + 128))
    assert w.shape == (128, 128)
    assert np.abs(w).max() <= a
    assert np.abs(w).max() > 0.9 * a  # uniform max should approach the bound
    assert abs(w.mean()) < 3 * a / np.sqrt(w.size)
    # conv fans are kernel*kernel*channels on both sides
    conv = init_params(small_conv_config(), k=4, seed=0).weights[0]
    a_conv = np.sqrt(6.0 / (9 * 2 + 9 * 3))
    assert np.abs(conv).max() <= a_conv


def test_zero_params_map_zero_input_to_zero_embedding():
    cfg = small_conv_config()
    params = init_params(cfg, k=3, seed=0)
    for arr in params.weights + params.biases:
        arr[...] = 0
    e, _ = forward(params, np.zeros((2, 6, 6, 2)))
    assert e.shape == (2, 5)
    assert not e.any()


def test_single_fc_layer_reproduced_by_hand():
    cfg = ModelConfig(input_hwc=(1, 1, 3), layers=[("fc", 2)], embed_dim=2, dtype="f64")
    params = init_params(cfg, k=2, seed=0)
    params.weights[0] = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]])
    params.biases[0] = np.array([0.1, 0.2])
    x = np.array([[[[1.0, 2.0, 3.0]]]])
    e, _ = forward(params, x)
    # positive throughout, so the rectifier is a no-op
    np.testing.assert_allclose(e, [[1 * 1 + 2 * 0 + 3 * 1 + 0.1, 0.5 + 4 + 3 + 0.2]])


def test_forward_matches_straight_line_reference():
    rng = np.random.default_rng(17)
    cfg = small_conv_config()
    params = init_params(cfg, k=4, seed=3)
    images = rng.standard_normal((3, 6, 6, 2))
    e, _ = forward(params, images)
    ref = reference_forward(params, images)
    np.testing.assert_allclose(e, ref, rtol=1e-12, atol=1e-12)


def test_forward_rejects_wrong_shapes():
    params = init_params(small_conv_config(), k=3, seed=0)
    with pytest.raises(ValueError, match="does not match config"):
        forward(params, np.zeros((2, 5, 6, 2)))


def test_score_subset_cases():
    cfg = ModelConfig(input_hwc=(1, 1, 1), layers=[("fc", 1)], embed_dim=1, dtype="f64")
    params = init_params(cfg, k=3, seed=0)
    params.output_weights = np.array([[1.0, 2.0, 3.0]])
    e = np.array([[2.0]])
    np.testing.assert_array_equal(score_subset(params, e, np.array([0, 2])), [[2.0, 6.0]])

    rng = np.random.default_rng(2)
    params.output_weights = rng.standard_normal((1, 3))
    dense = score_subset(params, e, np.arange(3))
    np.testing.assert_array_equal(dense, e @ params.output_weights)
    with pytest.raises(ValueError, match="class index out of range"):
        score_subset(params, e, np.array([3]))


def test_subset_scores_partition_dense_scores():
    rng = np.random.default_rng(6)
    cfg = ModelConfig(input_hwc=(1, 1, 4), layers=[("fc", 4)], embed_dim=4, dtype="f64")
    params = init_params(cfg, k=11, seed=1)
    e = rng.standard_normal((5, 4))
    subset = np.array([1, 4, 8])
    complement = np.setdiff1d(np.arange(11), subset)
    merged = np.empty((5, 11))
    merged[:, subset] = score_subset(params, e, subset)
    merged[:, complement] = score_subset(params, e, complement)
    np.testing.assert_array_equal(merged, score_subset(params, e, np.arange(11)))


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    params = init_params(small_conv_config(), k=3, seed=5)
    images = np.random.default_rng(0).standard_normal((2, 6, 6, 2))
    e, trace = forward(params, images)
    grads = backward(params, trace, np.zeros_like(e))
    for dw, db in grads:
        assert not dw.any()
        assert not db.any()
    d_e, d_cols = score_subset_backward(params, e, np.array([0, 2]), np.zeros((2, 2)))
    assert not d_e.any() and not d_cols.any()


def max_fd_error(params: ModelParams, images: np.ndarray, probe: np.ndarray) -> float:
    """Worst relative error of backward against central differences of sum(e * probe)."""

    def scalar_loss():
        e, _ = forward(params, images)
        return float((e * probe).sum())

    e, trace = forward(params, images)
    grads = backward(params, trace, probe)
    analytic = {}
    for i, (dw, db) in enumerate(grads):
        analytic[f"layer{i}.weight"] = dw
        analytic[f"layer{i}.bias"] = db

    h = 1e-4
    worst = 0.0
    for name, arr in param_arrays(params):
        if name == "output.weight":
            continue
        flat = arr.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + h
            up = scalar_loss()
            flat[idx] = saved - h
            down = scalar_loss()
            flat[idx] = saved
            numeric = (up - down) / (2 * h)
            err = abs(grad_flat[idx] - numeric) / max(abs(grad_flat[idx]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    cfg = small_conv_config()
    params = init_params(cfg, k=3, seed=8)
    images = rng.standard_normal((4, 6, 6, 2))
    probe = rng.standard_normal((4, cfg.embed_dim))
    assert max_fd_error(params, images, probe) < 1e-5


@pytest.mark.parametrize(
    "layers",
    [
        [("conv", 2, 2), ("conv", 2, 2), ("fc", 5), ("fc", 4)],  # second conv 1x1, unpooled
        [("conv", 2, 3), ("conv", 2, 3), ("fc", 4)],
    ],
    ids=["conv2-conv2-fc5-fc4", "conv3-conv3-fc4"],
)
def test_stacked_conv_backward_matches_finite_differences(layers):
    cfg = ModelConfig(input_hwc=(6, 6, 1), layers=layers, embed_dim=4, dtype="f64")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, k=3, seed=seed)
        # init's zero biases let an all-zero pooled patch put a pre-activation
        # exactly on the rectifier's kink, where central differences disagree
        for bias in params.biases:
            bias[...] = rng.uniform(-0.5, 0.5, size=bias.shape)
        images = rng.standard_normal((4, 6, 6, 1))
        probe = rng.standard_normal((4, cfg.embed_dim))
        assert max_fd_error(params, images, probe) < 1e-5, f"seed {seed}"


def test_pool_gradient_routes_to_first_maximum():
    # 5x5 input, all-ones 2x2 kernel: conv outputs (0,0) and (1,1) tie at 4
    # inside the first pool window, so the gradient must flow to (0,0) and
    # d_weight must pick up that position's input patch [[4,0],[0,0]].
    cfg = ModelConfig(
        input_hwc=(5, 5, 1),
        layers=[("conv", 2, 1), ("fc", 4)],
        embed_dim=4,
        dtype="f64",
    )
    params = init_params(cfg, k=2, seed=0)
    params.weights[0][...] = 1.0
    params.biases[0][...] = 0.0
    params.weights[1][...] = np.eye(4)
    params.biases[1][...] = 0.0

    x = np.zeros((1, 5, 5, 1))
    x[0, 0, 0, 0] = 4.0
    x[0, 1, 2, 0] = 2.0
    x[0, 2, 1, 0] = 2.0

    e, trace = forward(params, x)
    assert e[0, 0] == 4.0  # pooled cell (0,0) leads the flattened embedding
    d_e = np.array([[1.0, 0.0, 0.0, 0.0]])
    grads = backward(params, trace, d_e)
    d_conv_w = grads[0][0][:, :, 0, 0]
    np.testing.assert_array_equal(d_conv_w, [[4.0, 0.0], [0.0, 0.0]])
    assert grads[0][1][0] == 1.0


def test_odd_spatial_edges_are_truncated_by_pooling():
    cfg = ModelConfig(
        input_hwc=(6, 6, 1), layers=[("conv", 2, 1), ("fc", 4)], embed_dim=4, dtype="f64"
    )
    params = init_params(cfg, k=2, seed=1)
    e, trace = forward(params, np.random.default_rng(0).standard_normal((1, 6, 6, 1)))
    # conv gives 5x5, the pool keeps the even 4x4 region -> 2x2 cells
    assert trace.pre_acts[0].shape == (1, 5, 5, 1)
    assert trace.inputs[1].shape == (1, 4)


def reference_pool_windows(a: np.ndarray) -> np.ndarray:
    """(B,H,W,C) -> (B,Hp,Wp,4,C) full 2x2 windows; odd edges truncated."""
    b, h, w, c = a.shape
    hp, wp = h // 2, w // 2
    trimmed = a[:, : hp * 2, : wp * 2, :]
    return trimmed.reshape(b, hp, 2, wp, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(b, hp, wp, 4, c)


def reference_pool_route(params: ModelParams, images: np.ndarray, d_embeddings: np.ndarray):
    """Forward and backward through the windowed argmax + put_along_axis max-pool.

    The same arithmetic as model.forward/backward everywhere but the pool;
    returns (embeddings, [(d_weight, d_bias)] per layer).
    """
    cfg = params.config
    x = images.astype(cfg.np_dtype)
    saved = []
    for layer, w, b in zip(cfg.layers, params.weights, params.biases):
        x = _im2col(x, layer[1]) if layer[0] == "conv" else x.reshape(x.shape[0], -1)
        z = x @ w.reshape(-1, w.shape[-1]) + b
        pooled = layer[0] == "conv" and z.shape[1] >= 2 and z.shape[2] >= 2
        saved.append((x, z, pooled))
        x = np.maximum(z, 0)
        if pooled:
            x = reference_pool_windows(x).max(axis=3)
    embeddings = x
    grads = [None] * len(cfg.layers)
    d_x = d_embeddings.astype(cfg.np_dtype)
    for i in range(len(cfg.layers) - 1, -1, -1):
        w = params.weights[i]
        cols, z, pooled = saved[i]
        if pooled:
            wins = reference_pool_windows(np.maximum(z, 0))
            b, hp, wp, _, c = wins.shape
            d_wins = np.zeros_like(wins)
            arg = wins.argmax(axis=3)[:, :, :, None, :]
            np.put_along_axis(d_wins, arg, d_x.reshape(b, hp, wp, 1, c), axis=3)
            d_a = np.zeros_like(z)
            d_a[:, : hp * 2, : wp * 2, :] = (
                d_wins.reshape(b, hp, wp, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(b, hp * 2, wp * 2, c)
            )
        else:
            d_a = d_x.reshape(z.shape)
        d_z = (d_a * (z > 0)).reshape(-1, z.shape[-1])
        grads[i] = ((cols.reshape(-1, cols.shape[-1]).T @ d_z).reshape(w.shape), d_z.sum(axis=0))
        if i == 0:
            break
        d_x = d_z @ w.reshape(-1, w.shape[-1]).T
        if cfg.layers[i][0] == "conv":
            ks, _, c_in, _ = w.shape
            b, ho, wo, _ = z.shape
            d_cols = d_x.reshape(b, ho, wo, ks, ks, c_in)
            d_x = np.zeros((b, ho + ks - 1, wo + ks - 1, c_in), dtype=d_cols.dtype)
            for r in range(ks):
                for s in range(ks):
                    d_x[:, r : r + ho, s : s + wo, :] += d_cols[:, :, :, r, s, :]
    return embeddings, grads


POOL_ROUTE_CASES = {  # input (H, W, C), layers; the comments give each conv's output size
    "even": ((8, 8, 1), [("conv", 3, 4), ("fc", 6)]),  # 6x6
    "odd-edges": ((8, 8, 2), [("conv", 2, 3), ("fc", 6)]),  # 7x7
    "stacked-7x7": ((7, 7, 1), [("conv", 2, 3), ("conv", 2, 3), ("fc", 6)]),  # 6x6, 2x2
    "stacked-16x16": ((16, 16, 1), [("conv", 5, 4), ("conv", 2, 4), ("fc", 8), ("fc", 6)]),  # 12x12, 5x5
}


@pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("case", sorted(POOL_ROUTE_CASES))
def test_pool_route_matches_argmax_reference_bytes(case, dtype, tied):
    input_hwc, layers = POOL_ROUTE_CASES[case]
    cfg = ModelConfig(input_hwc=input_hwc, layers=layers, embed_dim=layers[-1][1], dtype=dtype)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, k=3, seed=seed)
        for bias in params.biases:
            bias[...] = rng.uniform(-0.5, 0.5, size=bias.shape)
        images = rng.standard_normal((5, *input_hwc))
        if tied:  # halves in inputs, weights and biases make equal window maxima common
            images = np.round(images * 2) / 2
            for arr in params.weights + params.biases:
                arr[...] = np.round(arr * 4) / 2
        d_e = rng.standard_normal((5, cfg.embed_dim))
        e, trace = forward(params, images)
        grads = backward(params, trace, d_e)
        ref_e, ref_grads = reference_pool_route(params, images, d_e)
        assert e.tobytes() == ref_e.tobytes(), f"seed {seed}"
        for i, ((dw, db), (ref_dw, ref_db)) in enumerate(zip(grads, ref_grads)):
            assert dw.dtype == ref_dw.dtype == cfg.np_dtype
            assert dw.tobytes() == ref_dw.tobytes(), f"seed {seed} layer {i} weight"
            assert db.tobytes() == ref_db.tobytes(), f"seed {seed} layer {i} bias"
        if tied:  # some window's positive maximum is shared, so the route's order is tested
            wins = reference_pool_windows(np.maximum(trace.pre_acts[0], 0))
            top = wins.max(axis=3, keepdims=True)
            assert ((wins == top) & (top > 0)).sum(axis=3).max() > 1


def test_backward_rejects_mismatched_trace():
    params = init_params(small_conv_config(), k=3, seed=5)
    _, trace = forward(params, np.zeros((2, 6, 6, 2)))
    with pytest.raises(ValueError, match="trace does not match batch"):
        backward(params, trace, np.zeros((3, 5)))


def test_checkpoint_round_trip(tmp_path):
    cfg = small_conv_config(dtype="f32")
    params = init_params(cfg, k=6, seed=13)
    state = {"bit_generator": "PCG64", "state": {"state": 123, "inc": 45}}
    path = tmp_path / "model.wlckpt"
    save_checkpoint(str(path), params, rng_algo="numpy-pcg64", rng_state=state, step=17, lr=0.025)

    assert not (tmp_path / "model.wlckpt.tmp").exists()
    raw = path.read_bytes()
    assert raw.startswith(b"WLCKPT1\n")

    loaded, meta = load_checkpoint(str(path))
    assert loaded.config == params.config
    for (name_a, arr_a), (name_b, arr_b) in zip(param_arrays(params), param_arrays(loaded)):
        assert name_a == name_b
        assert arr_a.tobytes() == arr_b.tobytes()
        assert arr_a.dtype == arr_b.dtype
    assert meta["rng_algo"] == "numpy-pcg64"
    assert meta["rng_state"] == state
    assert meta["step"] == 17
    assert meta["lr"] == 0.025


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.wlckpt"
    path.write_bytes(b"NOPE123\n" + b"x" * 32)
    with pytest.raises(ValueError, match="malformed checkpoint"):
        load_checkpoint(str(path))


# each damage to a saved f32 checkpoint of small_conv_config (7 arrays, k=6),
# and the place its error must name after the path
CHECKPOINT_DAMAGE = {
    "wrong magic": (lambda raw: b"WLCKPT9" + raw[7:], "line 1"),
    "cut in header": (lambda raw: raw[: raw.index(b"\nstep=")], "line 6"),
    "non-ASCII header": (lambda raw: raw.replace(b"=numpy", b"=n\xffmpy", 1), "line 5"),
    "header key out of order": (
        lambda raw: raw.replace(b"\nk=6\ndtype=f32\n", b"\ndtype=f32\nk=6\n", 1), "line 3"
    ),
    "cut in array line": (lambda raw: raw[: raw.index(b"array=layer1.weight") + 12], "array 3"),
    "cut in payload": (lambda raw: raw[:-5], "array output.weight"),
    "missing array": (
        lambda raw: raw.replace(b"\narrays=7\n", b"\narrays=6\n", 1), "missing array output.weight"
    ),
    "k mismatch": (lambda raw: raw.replace(b"\nk=6\n", b"\nk=7\n", 1), "line 3"),
    "dtype mismatch": (lambda raw: raw.replace(b"\ndtype=f32\n", b"\ndtype=f64\n", 1), "line 4"),
    "array shape disagrees with config": (
        lambda raw: raw.replace(b"shape=12,7 ", b"shape=7,12 ", 1),
        "array layer1.weight: shape (7, 12), config needs (12, 7)",
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DAMAGE))
def test_checkpoint_errors_name_the_path(tmp_path, case):
    damage, place = CHECKPOINT_DAMAGE[case]
    path = tmp_path / "model.wlckpt"
    params = init_params(small_conv_config(dtype="f32"), k=6, seed=13)
    save_checkpoint(str(path), params, rng_algo="numpy-pcg64", rng_state={}, step=3, lr=0.1)
    raw = path.read_bytes()
    bad = damage(raw)
    assert bad != raw
    path.write_bytes(bad)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert place in str(err.value)


def test_model_config_validation():
    with pytest.raises(ValueError, match="last layer must be fc"):
        ModelConfig(input_hwc=(4, 4, 1), layers=[("conv", 2, 2)], embed_dim=2)
    with pytest.raises(ValueError, match="conv layer after fc"):
        ModelConfig(
            input_hwc=(4, 4, 1), layers=[("fc", 3), ("conv", 2, 2), ("fc", 2)], embed_dim=2
        )
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(input_hwc=(4, 4, 1), layers=[("fc", 2)], embed_dim=2, dtype="f16")
    cfg = small_conv_config()
    assert ModelConfig.from_json(cfg.to_json()) == cfg


def test_param_count_is_exact():
    params = init_params(small_conv_config(), k=4, seed=0)
    # conv 3x3x2x3 + 3, fc 12*7 + 7 (3 channels pooled to 2x2), fc 7*5 + 5, W 5*4
    assert params.n_params() == (54 + 3) + (84 + 7) + (35 + 5) + 20
