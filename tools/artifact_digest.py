"""Digests of every artifact of one perfbench workload run, to compare two trees byte for byte.

    python3 tools/artifact_digest.py --workload fc-k20 --seed 1
    python3 tools/artifact_digest.py --workload all --seed 1 --seed 4

Builds the workload's inputs with perfbench/inputs.make_inputs in a temporary
directory, then runs build-dict -> train -> eval-words (k 1 and 10) ->
[eval-probe] -> eval-analogy -> eval-sim -> eval-translate (k 10) ->
[dump-embeddings] once, as perfbench/run.py runs them, through
weaklearn.cli.main from this tree's src/. Prints one JSON line of sha256
digests: the checkpoint, the dictionary, the trainlog's lr, val_error and
train_loss_mean sequences, each command's stdout (with the temporary
directory's path replaced by "<work>"), both dump-embeddings files and
eval-probe's "selected lambda" stderr line. The stderr config lines hold
paths and wall times are not reproducible, so both are left out. Two trees
print equal lines exactly when these bytes are equal.

--seed may be given more than once, and --workload all takes every
workload; one line is printed per (workload, seed), workloads in name order.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, as perfbench/run.py pins them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

from inputs import make_inputs
from weaklearn import cli


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def digests(spec: dict, seed: int, work_dir: str) -> dict[str, str]:
    inp = make_inputs(spec, seed, work_dir, SRC)
    out: dict[str, str] = {}

    def run(label: str, argv: list[str]) -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"weaklearn {argv[0]} exited {code}: {stderr.getvalue().strip()}")
        out[f"stdout {label}"] = sha256(stdout.getvalue().replace(work_dir, "<work>"))
        return stderr.getvalue()

    dict_path = os.path.join(inp.data_dir, "dict.tsv")
    run("build-dict", ["build-dict", "--captions", os.path.join(inp.data_dir, "captions.jsonl"),
                       "--k", str(spec["synth"]["k"]), "--stop-count", "0", "--out", dict_path])
    out["dict.tsv"] = file_sha256(dict_path)
    run_dir = os.path.join(work_dir, "run")
    run("train", ["train", "--config", inp.config_path, "--data-dir", inp.data_dir, "--out-dir", run_dir])
    ckpt = os.path.join(run_dir, "checkpoint.wlckpt")
    out["checkpoint"] = file_sha256(ckpt)
    with open(os.path.join(run_dir, "trainlog.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for key in ("lr", "val_error", "train_loss_mean"):
        out[f"trainlog {key}"] = sha256(json.dumps([record[key] for record in records]))

    for k in ("1", "10"):
        run(f"eval-words --k {k}", ["eval-words", "--ckpt", ckpt, "--data", inp.heldout_dir, "--k", k])
    if spec["probe_lambda_grid"]:
        stderr = run("eval-probe", ["eval-probe", "--ckpt", ckpt, "--data", inp.heldout_dir,
                                    "--lambda-grid", spec["probe_lambda_grid"], "--seed", str(seed)])
        selected = [line for line in stderr.splitlines() if line.startswith("selected lambda")]
        out["stderr eval-probe selected lambda"] = sha256("\n".join(selected))
    for command, flag, path, extra in (
        ("eval-analogy", "--questions", inp.analogy_path, []),
        ("eval-sim", "--pairs", inp.sim_path, []),
        ("eval-translate", "--pairs", inp.translate_path, ["--k", "10"]),
    ):
        run(command, [command, "--ckpt", ckpt, "--dict", dict_path, flag, path, *extra])
    if spec["dump_embeddings"]:
        csv_path = os.path.join(run_dir, "embeddings.csv")
        run("dump-embeddings", ["dump-embeddings", "--ckpt", ckpt, "--dict", dict_path, "--out", csv_path])
        out["embeddings.csv"] = file_sha256(csv_path)
        out["embeddings_neighbors.json"] = file_sha256(os.path.join(run_dir, "embeddings_neighbors.json"))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "perfbench", "workloads.json"), encoding="utf-8") as fh:
        specs = {name: spec for name, spec in json.load(fh).items() if "synth" in spec}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *sorted(specs)])
    parser.add_argument("--seed", type=int, required=True, action="append")
    args = parser.parse_args(argv)
    for workload in sorted(specs) if args.workload == "all" else [args.workload]:
        for seed in args.seed:
            with tempfile.TemporaryDirectory(prefix="artifact-digest-") as work_dir:
                result = digests(specs[workload], seed, work_dir)
            print(json.dumps({"workload": workload, "seed": seed, **result}, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
