"""Command-line entry point: the full pipeline as subcommands.

Exit codes: 0 success, 1 usage error, 2 runtime error. Diagnostics go to
stderr; machine-readable output is JSON on stdout or files under --out-dir.
Every run logs its fully-resolved configuration to stderr first.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import CHECKPOINT_FORMAT, DICT_FORMAT, TENSOR_FORMAT, __version__
from .data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    read_captions_jsonl,
    write_captions_jsonl,
    write_tensor_container,
)
from .evaluate import (
    analogy_accuracy,
    dump_embeddings,
    extract_features,
    linear_probe,
    precision_at_k,
    spearman_similarity,
    translation_precision,
)
from .loss import check_bounds
from .model import ModelConfig, load_checkpoint
from .textpipe import build_dictionary, load_dictionary, normalize_text, open_utf8, save_dictionary
from .trainer import LOSS_KINDS, TrainConfig, gradient_check, save_trainlog, train

CAPTIONS_FILE = "captions.jsonl"
TENSORS_FILE = "tensors.bin"
DICT_FILE = "dict.tsv"

_VERSION_TEXT = (
    f"weaklearn {__version__} (formats: {TENSOR_FORMAT}, {CHECKPOINT_FORMAT}, {DICT_FORMAT})"
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log_resolved(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    print("config " + json.dumps(resolved, sort_keys=True, default=str), file=sys.stderr)


def parse_layers(spec) -> list[tuple]:
    """Layer spec from "conv:3:8,fc:64" strings or JSON-style nested lists."""
    if not isinstance(spec, str):  # a list is read as the string it spells, so 8.9 is no width
        spec = ",".join(":".join(map(str, item)) for item in spec)
    layers = []
    for chunk in spec.split(","):
        kind, *sizes = chunk.strip().split(":")
        if (kind, len(sizes)) not in (("fc", 1), ("conv", 2)) or not all(s.strip().isdecimal() for s in sizes):
            raise ValueError(f"bad layer spec: {chunk!r}")
        layers.append((kind, *map(int, sizes)))
    return layers


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value.strip().strip("\"'")


def load_config_file(path: str) -> dict:
    """Read a sectioned config file: JSON, or INI-style key = value sections.

    A file that does not parse raises ValueError naming the file and line.
    INI values are not interpolated: "%" reads literally, as in JSON.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"config not found: {path}")
    with open_utf8(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg} at column {exc.colno}") from None
        if not isinstance(obj, dict):
            line = 1 + text[: len(text) - len(text.lstrip())].count("\n")
            raise ValueError(f"{path}: line {line}: config root must be an object")
        return obj
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: key before any [section] header") from None
    except configparser.ParsingError as exc:
        raise ValueError(f"{path}: line {exc.errors[0][0]}: expected key = value") from None
    except configparser.DuplicateSectionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: repeated section [{exc.section}]") from None
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: repeated key {exc.option!r} in [{exc.section}]") from None
    return {
        section: {key: _coerce(value) for key, value in parser.items(section)}
        for section in parser.sections()
    }


def _cmd_gen_synth(args) -> int:
    cfg = SynthConfig(
        k=args.k,
        img_size=args.img_size,
        zipf_exponent=args.zipf,
        words_per_image=args.words_per_image,
        noise_sigma=args.noise,
        seed=args.seed,
        n_examples=args.n_examples,
    )
    dataset, dictionary, prototypes = generate_synthetic(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    ids = dataset.ids.tolist()
    rows = [
        {"id": ex_id, "caption": " ".join(dictionary.words[l] for l in dataset.labels_of(i)), "image": ex_id}
        for i, ex_id in enumerate(ids)
    ]
    write_captions_jsonl(os.path.join(args.out_dir, CAPTIONS_FILE), rows)
    write_tensor_container(os.path.join(args.out_dir, TENSORS_FILE), dict(zip(ids, dataset.images)))
    np.save(os.path.join(args.out_dir, "prototypes.npy"), prototypes)
    files = [CAPTIONS_FILE, TENSORS_FILE, "prototypes.npy"]
    summary = {"n_examples": len(dataset), "k": dictionary.k, "img_size": cfg.img_size, "files": files}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_build_dict(args) -> int:
    docs = (normalize_text(row["caption"]) for row in read_captions_jsonl(args.captions))
    dictionary = build_dictionary(docs, k=args.k, stop_count=args.stop_count)
    save_dictionary(dictionary, args.out)
    print(json.dumps({"k": dictionary.k, "stop_count": dictionary.stop_count, "out": args.out}, sort_keys=True))
    return 0


# every TrainConfig field has a default, whose type a config-file value must have
_TRAIN_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
_MODEL_KEYS = {"layers": (str, list), "embed_dim": int, "dtype": str}


def _config_section(file_cfg: dict, path: str, name: str, types: dict) -> dict:
    """One section of a config file, each value checked against its key's type.

    A float key also takes an int (as a float), but no NaN or infinity; only a bool key takes
    a bool. An unknown key or a value of another type is an error naming the file and key.
    """
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {name}: expected a section of keys, got {section!r}")
    checked = {}
    for key, value in section.items():
        if key not in types:
            raise ValueError(f"{path}: {name}.{key}: unknown key, expected one of {sorted(types)}")
        want = types[key]
        if want is float and type(value) is int:
            value = float(value)
        if not isinstance(value, want) or (type(value) is bool and want is not bool):
            expected = " or ".join(t.__name__ for t in (want if isinstance(want, tuple) else (want,)))
            raise ValueError(f"{path}: {name}.{key}: expected {expected}, got {value!r}")
        if want is float and not math.isfinite(value):
            raise ValueError(f"{path}: {name}.{key}: expected a finite number, got {value!r}")
        checked[key] = value
    return checked


def _cmd_train(args) -> int:
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - {"train", "model"}
    if unknown:
        raise ValueError(f"{args.config}: unknown config sections: {sorted(unknown)}")
    train_section = _config_section(file_cfg, args.config, "train", _TRAIN_KEYS)
    model_section = _config_section(file_cfg, args.config, "model", _MODEL_KEYS)
    for key in _TRAIN_KEYS:
        if getattr(args, key, None) is not None:
            train_section[key] = getattr(args, key)
    cfg = TrainConfig(**train_section)

    try:
        layers = parse_layers(model_section.get("layers", "fc:64,fc:64"))
    except ValueError as exc:  # only a config file's value can be malformed
        raise ValueError(f"{args.config}: model.layers: {exc}") from None

    dictionary, dataset, dropped = _load_data_dir(args.data_dir)
    model_cfg = ModelConfig(
        input_hwc=dataset.images.shape[1:],
        layers=layers,
        embed_dim=model_section.get("embed_dim", 64),
        dtype=model_section.get("dtype", "f32"),
    )
    merged = {"train": dataclasses.asdict(cfg), "model": json.loads(model_cfg.to_json())}
    print("config " + json.dumps(merged, sort_keys=True), file=sys.stderr)
    if dropped:
        print(f"dropped {dropped} empty-label examples", file=sys.stderr)

    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.wlckpt")
    params, log = train(cfg, dataset, model_cfg, k=dictionary.k, checkpoint_path=ckpt_path)
    save_trainlog(log, os.path.join(args.out_dir, "trainlog.jsonl"))
    final_val_error = log.records[-1]["val_error"] if log.records else None
    summary = {"checkpoint": "checkpoint.wlckpt", "epochs": len(log.records), "final_val_error": final_val_error}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_check_bounds(args) -> int:
    logits = np.random.default_rng(args.seed).standard_normal(args.k)
    report = check_bounds(logits, subset_size=args.subset, trials=args.trials, seed=args.seed)
    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    return 0


def _cmd_grad_check(args) -> int:
    layers = [("conv", 3, 4), ("fc", 16), ("fc", 8)]
    model_cfg = ModelConfig(input_hwc=(6, 6, 1), layers=layers, embed_dim=8, dtype="f64")
    err = gradient_check(model_cfg, args.loss_kind, args.seed)
    print(json.dumps({"loss_kind": args.loss_kind, "max_rel_err": err}, sort_keys=True))
    return 0


def _load_data_dir(data_dir: str):
    """(dictionary, dataset, count of dropped empty-label examples) of a data directory."""
    paths = [os.path.join(data_dir, name) for name in (DICT_FILE, CAPTIONS_FILE, TENSORS_FILE)]
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"data file not found: {path}")
    dictionary = load_dictionary(paths[0])
    dataset, dropped = load_dataset(paths[1], paths[2], dictionary)
    if not dataset:
        raise ValueError("no usable examples")
    return dictionary, dataset, dropped


def _cmd_eval_words(args) -> int:
    params, _ = load_checkpoint(args.ckpt)
    _, dataset, _ = _load_data_dir(args.data)
    report = precision_at_k(params, dataset, k=args.k)
    print(report.to_json())
    return 0


def _cmd_eval_probe(args) -> int:
    grid = _lambda_grid(args.lambda_grid) if args.lambda_grid is not None else None
    params, _ = load_checkpoint(args.ckpt)
    _, dataset, _ = _load_data_dir(args.data)
    features = extract_features(params, dataset)
    labels = dataset.label_flat[dataset.label_offsets[:-1]]  # lowest class index per example
    probe, report = linear_probe(features, labels, lambda_grid=grid, seed=args.seed)
    print(f"selected lambda {probe.lam:g}: refit in {probe.iterations} iterations "
          f"to gradient norm {probe.grad_norm:.2e}", file=sys.stderr)
    print(report.to_json())
    return 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


def _lambda_grid(text: str) -> list[float]:
    """The comma-separated values of --lambda-grid, each a finite number > 0."""
    grid = []
    for part in text.split(","):
        try:
            value = _finite_float(part)
        except ValueError:
            value = math.nan
        if not value > 0:
            raise ValueError(f"--lambda-grid: {part!r} is not a finite number > 0")
        grid.append(value)
    return grid


def _read_token_lines(path: str, kinds: tuple) -> list[list]:
    """Whitespace-separated fields, one converter in kinds (str or _finite_float) per field."""
    out = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != len(kinds):
                raise ValueError(f"{path}: line {lineno}: expected {len(kinds)} fields, got {len(parts)}")
            try:
                out.append([kind(part) for kind, part in zip(kinds, parts)])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a finite number in {line!r}") from None
    return out


def _cmd_eval_analogy(args) -> int:
    params, _ = load_checkpoint(args.ckpt)
    dictionary = load_dictionary(args.dict)
    questions = _read_token_lines(args.questions, (str,) * 4)
    report = analogy_accuracy(params.output_weights, questions, dictionary)
    print(report.to_json())
    return 0


def _cmd_eval_sim(args) -> int:
    params, _ = load_checkpoint(args.ckpt)
    dictionary = load_dictionary(args.dict)
    pairs = _read_token_lines(args.pairs, (str, str, _finite_float))
    report = spearman_similarity(params.output_weights, pairs, dictionary)
    print(report.to_json())
    return 0


def _cmd_eval_translate(args) -> int:
    params, _ = load_checkpoint(args.ckpt)
    dictionary = load_dictionary(args.dict)
    pairs = _read_token_lines(args.pairs, (str, str))
    report = translation_precision(params.output_weights, pairs, dictionary, direction=args.direction, k=args.k)
    print(report.to_json())
    return 0


def _cmd_dump_embeddings(args) -> int:
    params, _ = load_checkpoint(args.ckpt)
    dictionary = load_dictionary(args.dict)
    neighbors_path = dump_embeddings(params.output_weights, dictionary, args.out)
    print(json.dumps({"csv": args.out, "neighbors": neighbors_path, "k": dictionary.k}, sort_keys=True))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="weaklearn", description=__doc__)
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen-synth", help="generate a synthetic Zipf image-caption dataset")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--img-size", type=int, default=16)
    p.add_argument("--zipf", type=float, default=1.0)
    p.add_argument("--words-per-image", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-examples", type=int, default=2000)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("build-dict", help="build the word dictionary from caption JSONL")
    p.add_argument("--captions", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--stop-count", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_dict)

    p = sub.add_parser("train", help="train on a data directory")
    p.add_argument("--config", help="JSON or INI-style sectioned config file")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epoch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--lr-init", type=float)
    p.add_argument("--loss-kind", choices=LOSS_KINDS)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--full-softmax", action="store_const", const=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("check-bounds", help="Monte-Carlo check of the partition bounds")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--subset", type=int, default=4)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--loss-kind", choices=LOSS_KINDS, default="multiclass")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("eval-words", help="precision@k of word prediction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=_cmd_eval_words)

    p = sub.add_parser("eval-probe", help="linear probe on penultimate features")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda-grid", help="comma-separated values, default log-spaced 1e-4..1e2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval_probe)

    p = sub.add_parser("eval-analogy", help="analogy accuracy over 4-words-per-line questions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--questions", required=True)
    p.set_defaults(func=_cmd_eval_analogy)

    p = sub.add_parser("eval-sim", help="Spearman correlation over word1 word2 rating lines")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=_cmd_eval_sim)

    p = sub.add_parser("eval-translate", help="bilingual matching precision over src tgt lines")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--direction", choices=["forward", "reverse"], default="forward")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_eval_translate)

    p = sub.add_parser("dump-embeddings", help="write embedding CSV plus neighbor JSON")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dump_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    if args.func is not _cmd_train:  # train logs its merged config once it is resolved
        _log_resolved(args)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures map to exit 2 by contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
