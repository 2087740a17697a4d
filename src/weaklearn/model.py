"""Embedding network f(x; theta) and the output matrix whose columns are word vectors.

The backbone is a configurable stack of conv and fully-connected layers,
each followed by a rectifier; conv layers additionally max-pool 2x2 with
stride 2 when the spatial extent allows. Forward and backward passes are
written out by hand so gradients can be audited against finite differences.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

CHECKPOINT_FORMAT = "WLCKPT1"
CHECKPOINT_MAGIC = f"{CHECKPOINT_FORMAT}\n".encode("ascii")
_ARRAY_LINE = re.compile(r"array=(\S+) shape=((?:[0-9]+(?:,[0-9]+)*)?) dtype=(f32|f64)\n")

# Parameter dtypes by config name, little-endian as checkpoints store them.
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass
class ModelConfig:
    """Backbone layout.

    layers is an ordered list of ("conv", k_size, channels) and
    ("fc", width) entries; conv layers must precede the first fc layer
    (the input is flattened there). The last layer must be an fc of width
    embed_dim. dtype "f64" exists for gradient and bound verification;
    training default is "f32".
    """

    input_hwc: tuple[int, int, int]
    layers: list[tuple]
    embed_dim: int
    dtype: str = "f32"

    def __post_init__(self):
        self.input_hwc = tuple(int(d) for d in self.input_hwc)
        self.layers = [tuple(layer) for layer in self.layers]
        if len(self.input_hwc) != 3 or any(d < 1 for d in self.input_hwc):
            raise ValueError("input_hwc must be three positive integers")
        if self.dtype not in _DTYPES:
            raise ValueError("dtype must be f32 or f64")
        if not self.layers:
            raise ValueError("at least one layer required")
        if self.layers[-1][0] != "fc" or self.layers[-1][1] != self.embed_dim:
            raise ValueError("last layer must be fc with width embed_dim")
        seen_fc = False
        for layer in self.layers:
            if layer[0] == "fc":
                seen_fc = True
                if len(layer) != 2 or layer[1] < 1:
                    raise ValueError(f"bad fc layer: {layer}")
            elif layer[0] == "conv":
                if seen_fc:
                    raise ValueError("conv layer after fc layer")
                if len(layer) != 3 or layer[1] < 1 or layer[2] < 1:
                    raise ValueError(f"bad conv layer: {layer}")
            else:
                raise ValueError(f"unknown layer kind: {layer[0]}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))


def _pools(shape: tuple[int, ...]) -> bool:
    """The pool rule: a (B,H,W,C) conv output is max-pooled 2x2 when H and W are at least 2."""
    return len(shape) == 4 and shape[1] >= 2 and shape[2] >= 2


def _layer_shapes(cfg: ModelConfig):
    """Walk the layer spec, yielding weight/bias shapes and fan-in/out per layer."""
    h, w, c = cfg.input_hwc
    flat = None
    out = []
    for layer in cfg.layers:
        if layer[0] == "conv":
            _, ks, ch = layer
            if ks > h or ks > w:
                raise ValueError("conv kernel larger than input")
            out.append(((ks, ks, c, ch), (ch,), ks * ks * c, ks * ks * ch))
            h, w, c = h - ks + 1, w - ks + 1, ch
            if _pools((1, h, w, c)):
                h, w = h // 2, w // 2
        else:
            _, width = layer
            if flat is None:
                flat = h * w * c
            out.append(((flat, width), (width,), flat, width))
            flat = width
    return out


@dataclass
class ModelParams:
    config: ModelConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_weights: np.ndarray  # (E, K); column k is the embedding of word k

    @property
    def k(self) -> int:
        return self.output_weights.shape[1]

    def n_params(self) -> int:
        total = sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        return total + self.output_weights.size


def init_params(cfg: ModelConfig, k: int, seed) -> ModelParams:
    """Uniform(-a, a) weights with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    if k < 1:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    dtype = cfg.np_dtype
    weights, biases = [], []
    for w_shape, b_shape, fan_in, fan_out in _layer_shapes(cfg):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=w_shape).astype(dtype))
        biases.append(np.zeros(b_shape, dtype=dtype))
    a = np.sqrt(6.0 / (cfg.embed_dim + k))
    w_out = rng.uniform(-a, a, size=(cfg.embed_dim, k)).astype(dtype)
    return ModelParams(config=cfg, weights=weights, biases=biases, output_weights=w_out)


def _im2col(x: np.ndarray, ks: int) -> np.ndarray:
    """(B,H,W,C) -> (B,Ho,Wo,ks*ks*C) sliding windows, row-major window layout."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (ks, ks), axis=(1, 2))
    # sliding_window_view yields (B,Ho,Wo,C,ks,ks); put channels last
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    b, ho, wo = windows.shape[:3]
    return np.ascontiguousarray(windows).reshape(b, ho, wo, -1)


def _corners(a: np.ndarray) -> list[np.ndarray]:
    """(B,H,W,C) -> the four (B,Hp,Wp,C) strided views of its 2x2 windows' corners.

    Window order (0,0), (0,1), (1,0), (1,1); an odd last row or column is dropped.
    """
    hp, wp = a.shape[1] // 2, a.shape[2] // 2
    return [a[:, r : 2 * hp : 2, s : 2 * wp : 2] for r in (0, 1) for s in (0, 1)]


def _max_pool(corners: list[np.ndarray]) -> np.ndarray:
    pooled = np.maximum(corners[0], corners[1])
    np.maximum(pooled, corners[2], out=pooled)
    np.maximum(pooled, corners[3], out=pooled)
    return pooled


def forward(
    params: ModelParams, images: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Compute embeddings (B, E) for an image batch; pure in params and input.

    Also returns the trace that backward reads, one (x, a) per layer: x is
    the layer's input matrix (a conv layer's im2col columns, an fc layer's
    flattened input) and a = max(x @ W + b, 0) its rectified output, before
    any pool.
    """
    cfg = params.config
    x = np.asarray(images)
    if x.ndim != 4 or x.shape[1:] != cfg.input_hwc:
        raise ValueError(f"input shape {x.shape} does not match config {cfg.input_hwc}")
    x = x.astype(cfg.np_dtype, copy=False)
    trace = []
    for layer, w, b in zip(cfg.layers, params.weights, params.biases):
        x = _im2col(x, layer[1]) if layer[0] == "conv" else x.reshape(x.shape[0], -1)
        a = x @ w.reshape(-1, w.shape[-1])
        a += b
        np.maximum(a, 0, out=a)
        trace.append((x, a))
        x = _max_pool(_corners(a)) if _pools(a.shape) else a
    return x, trace


def score_subset(w_cols: np.ndarray, embeddings: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logits embeddings @ w_cols, over whichever columns of W the caller passes.

    out, if given, is a (B, |w_cols|) array of the logits' dtype that takes
    the logits and is returned, so a chunked caller reuses one buffer; the
    values are the same. Kept as a function, not inlined, because perfbench
    times it at this name.
    """
    return np.matmul(embeddings, w_cols, out=out)


def score_subset_backward(
    w_cols: np.ndarray, embeddings: np.ndarray, d_logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_embeddings, d_w_cols) of score_subset; the columns of W not passed get no gradient.

    Kept as a function, not inlined, because perfbench times it at this name.
    """
    return d_logits @ w_cols.T, embeddings.T @ d_logits


def backward(
    params: ModelParams, trace: list[tuple[np.ndarray, np.ndarray]], d_embeddings: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate d_embeddings through the backbone.

    Returns [(d_weight, d_bias)] per layer in declaration order. Exact
    analytic gradient of whatever scalar produced d_embeddings; the
    rectifier passes gradient only where the rectified output is > 0
    (exactly where the pre-activation is), and max-pool routes gradient to
    the first maximum of each window in window order (0,0), (0,1), (1,0),
    (1,1). Activations must be finite: a NaN never equals the window
    maximum, so its window would get no gradient (train stops on a
    non-finite loss before that matters).
    """
    cfg = params.config
    if d_embeddings.shape[0] != trace[-1][1].shape[0]:
        raise ValueError("trace does not match batch")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(cfg.layers)
    d_x = d_embeddings.astype(cfg.np_dtype, copy=False)
    for i in range(len(cfg.layers) - 1, -1, -1):
        w = params.weights[i]
        cols, a = trace[i]
        if _pools(a.shape):
            corners = _corners(a)
            pooled = _max_pool(corners)
            d_pooled = d_x.reshape(pooled.shape)
            d_a = np.zeros_like(a)
            free = np.ones(pooled.shape, dtype=bool)  # windows whose maximum is not yet taken
            for corner, d_corner in zip(corners, _corners(d_a)):
                hit = corner == pooled
                hit &= free
                free ^= hit
                d_corner[...] = d_pooled * hit + 0.0  # + 0.0 turns -0.0 (negative * False) into +0.0
        else:
            d_a = d_x.reshape(a.shape)
        d_z = d_a * (a > 0)
        flat_cols = cols.reshape(-1, cols.shape[-1])
        flat_dz = d_z.reshape(-1, d_z.shape[-1])
        grads[i] = ((flat_cols.T @ flat_dz).reshape(w.shape), flat_dz.sum(axis=0))
        if i == 0:
            break
        d_x = flat_dz @ w.reshape(-1, w.shape[-1]).T
        if cfg.layers[i][0] == "conv":
            # col2im: each window position adds its slice of d_cols back onto the input
            ks, _, c_in, _ = w.shape
            b, ho, wo, _ = a.shape
            d_cols = d_x.reshape(b, ho, wo, ks, ks, c_in)
            d_x = np.zeros((b, ho + ks - 1, wo + ks - 1, c_in), dtype=d_cols.dtype)
            for r in range(ks):
                for s in range(ks):
                    d_x[:, r : r + ho, s : s + wo, :] += d_cols[:, :, :, r, s, :]
    return grads


def param_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Named arrays in declaration order; the checkpoint serialization order."""
    out = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out.append((f"layer{i}.weight", w))
        out.append((f"layer{i}.bias", b))
    out.append(("output.weight", params.output_weights))
    return out


# WLCKPT1 header lines 2..9 in order: key=value, each value read back by its parser.
_CHECKPOINT_HEADER = {
    "config": ModelConfig.from_json, "k": int, "dtype": str, "rng_algo": str,
    "rng_state": json.loads, "step": int, "lr": float, "arrays": int,
}


def save_checkpoint(
    path: str,
    params: ModelParams,
    rng_algo: str,
    rng_state: dict,
    step: int,
    lr: float,
) -> None:
    """Write the WLCKPT1 checkpoint atomically (temp file, then rename)."""
    cfg = params.config
    arrays = param_arrays(params)
    rng_json = json.dumps(rng_state, sort_keys=True, separators=(",", ":"))
    values = (cfg.to_json(), params.k, cfg.dtype, rng_algo, rng_json, int(step), repr(lr), len(arrays))
    header = "".join(f"{key}={value}\n" for key, value in zip(_CHECKPOINT_HEADER, values))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header.encode("ascii"))
        for name, arr in arrays:
            shape = ",".join(str(d) for d in arr.shape)
            fh.write(f"array={name} shape={shape} dtype={cfg.dtype}\n".encode("ascii"))
            fh.write(np.ascontiguousarray(arr, dtype=cfg.np_dtype).tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Read a WLCKPT1 checkpoint; returns (params, meta).

    meta carries rng_algo, rng_state, step and lr exactly as stored. Every
    array must have the shape the config and k give it. Every error starts
    with the path; a header error names its line, an array error its array.
    """
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: line 1: malformed checkpoint magic")
        header = {}
        for lineno, (key, parse) in enumerate(_CHECKPOINT_HEADER.items(), 2):
            line = fh.readline()
            prefix = f"{key}=".encode("ascii")
            if not (line.isascii() and line.startswith(prefix) and line.endswith(b"\n")):
                raise ValueError(f"{path}: line {lineno}: malformed checkpoint header, expected {key}=")
            try:
                header[key] = parse(line[len(prefix) : -1].decode("ascii"))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: bad {key} value: {exc}") from None
        cfg = header["config"]
        if cfg.dtype != header["dtype"]:
            raise ValueError(f"{path}: line 4: dtype={header['dtype']} but the config says {cfg.dtype}")
        named: dict[str, np.ndarray] = {}
        for ordinal in range(1, header["arrays"] + 1):
            line = fh.readline()
            m = _ARRAY_LINE.fullmatch(line.decode("ascii", errors="replace"))
            if m is None or m.group(3) != cfg.dtype:
                raise ValueError(f"{path}: array {ordinal}: malformed {cfg.dtype} array line {line[:80]!r}")
            name = m.group(1)
            shape = tuple(int(d) for d in m.group(2).split(",")) if m.group(2) else ()
            n_bytes = math.prod(shape) * cfg.np_dtype.itemsize
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise ValueError(f"{path}: array {name}: truncated, {len(raw)} of {n_bytes} bytes")
            named[name] = np.frombuffer(raw, dtype=cfg.np_dtype).reshape(shape).copy()
    shapes = {}
    for i, (w_shape, b_shape, _, _) in enumerate(_layer_shapes(cfg)):
        shapes[f"layer{i}.weight"], shapes[f"layer{i}.bias"] = w_shape, b_shape
    shapes["output.weight"] = (cfg.embed_dim, header["k"])
    for name, shape in shapes.items():
        if name not in named:
            raise ValueError(f"{path}: missing array {name}")
        if name == "output.weight" and named[name].shape[1:] != (header["k"],):
            raise ValueError(f"{path}: line 3: k={header['k']} but output.weight has shape {named[name].shape}")
        if named[name].shape != shape:
            raise ValueError(f"{path}: array {name}: shape {named[name].shape}, config needs {shape}")
    layers = [named[name] for name in shapes]
    params = ModelParams(cfg, weights=layers[0:-1:2], biases=layers[1:-1:2], output_weights=layers[-1])
    meta = {key: header[key] for key in ("rng_algo", "rng_state", "step", "lr")}
    return params, meta
