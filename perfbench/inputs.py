"""Builds every input of one workload run from the workload seed.

The program receives only files: the gen-synth data dir, a held-out dir
(the caption rows of the validation split, with the same tensors.bin and
dict.tsv), a train config, and analogy, similarity and translation word
lists drawn from the dictionary. None of this is timed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np


@dataclass
class Inputs:
    data_dir: str
    heldout_dir: str
    config_path: str
    analogy_path: str
    sim_path: str
    translate_path: str
    dict_k: int
    n_heldout: int
    n_items: int


def _run_cli(argv: list[str], src_dir: str) -> None:
    """gen-synth and the first build-dict run in a child, so their memory stays
    out of the workload process's peak RSS."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "weaklearn", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"weaklearn {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")


def _word_lists(words: list[str], n: int, seed: int, out_dir: str) -> tuple[str, str, str]:
    rng = np.random.default_rng([seed, 0x57])
    k = len(words)
    paths = []
    for name, width in (("analogy.txt", 4), ("sim.txt", 2), ("translate.txt", 2)):
        lines = []
        for _ in range(n):
            picks = rng.choice(k, size=width, replace=False)
            fields = [words[i] for i in picks]
            if name == "sim.txt":
                fields.append(f"{rng.uniform(0.0, 10.0):.2f}")
            lines.append(" ".join(fields))
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return tuple(paths)


def make_inputs(spec: dict, seed: int, work_dir: str, src_dir: str) -> Inputs:
    from weaklearn.data import stable_fraction
    from weaklearn.textpipe import load_dictionary

    synth, train = spec["synth"], spec["train"]
    data_dir = os.path.join(work_dir, "data")
    heldout_dir = os.path.join(work_dir, "heldout")
    os.makedirs(heldout_dir)
    _run_cli(
        [
            "gen-synth",
            "--k", str(synth["k"]),
            "--img-size", str(synth["img_size"]),
            "--words-per-image", str(synth["words_per_image"]),
            "--n-examples", str(synth["n_examples"]),
            "--noise", str(synth["noise"]),
            "--seed", str(seed),
            "--out-dir", data_dir,
        ],
        src_dir,
    )
    dict_path = os.path.join(data_dir, "dict.tsv")
    _run_cli(
        ["build-dict", "--captions", os.path.join(data_dir, "captions.jsonl"),
         "--k", str(synth["k"]), "--stop-count", "0", "--out", dict_path],
        src_dir,
    )

    fraction = train["validation_fraction"]
    n_heldout = 0
    with open(os.path.join(data_dir, "captions.jsonl"), encoding="utf-8") as src, open(
        os.path.join(heldout_dir, "captions.jsonl"), "w", encoding="utf-8"
    ) as dst:
        for line in src:
            if line.strip() and stable_fraction(json.loads(line)["id"], salt="val-split") < fraction:
                dst.write(line)
                n_heldout += 1
    for name in ("tensors.bin", "dict.tsv"):
        shutil.copyfile(os.path.join(data_dir, name), os.path.join(heldout_dir, name))

    config_path = os.path.join(work_dir, "train.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"train": dict(train, seed=seed), "model": spec["model"]}, fh)

    words = load_dictionary(dict_path).words
    n = spec["word_list_items"]
    analogy, sim, translate = _word_lists(words, n, seed, work_dir)
    return Inputs(data_dir, heldout_dir, config_path, analogy, sim, translate, len(words), n_heldout, n)
