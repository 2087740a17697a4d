"""weaklearn benchmark: one workload run of the whole pipeline, in-process.

    python3 perfbench/run.py --workload fc-k20 --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from --seed (untimed), then repeats the timed
pipeline build-dict -> train -> eval-words -> [eval-probe] -> eval-analogy ->
eval-sim -> eval-translate -> [dump-embeddings] through weaklearn.cli.main
until --seconds, counted from the start of the run so that they bound its
wall time, are used up (at least MIN_REPS times), running the short eval
commands several times per repetition. setup_s is reported as the median over
repetitions, every other time from the fast end of its samples (see
end_to_end()).
Every command's report and the run's artifacts are checked; each command and
each check is one attempted operation.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 instead
alternates untraced and traced repetitions and prints the per-layer metrics:
span totals from the fastest traced repetition plus the tracing overhead, the
change in train_examples_per_s between the two kinds. The last stdout line is
the JSON result; the run's details (environment, every repetition, the spans)
go to perfbench/_results/.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is imported, here and in every child process.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse
import copy
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

from inputs import make_inputs
from spans import SELF_TIMED, Tracer, span_records, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
EVAL_FIELDS = ("metric", "value", "k", "n_items", "n_skipped")
# The commands each end-to-end stage time is made of, by their labels in
# Pipeline.times.
STAGES = {
    "eval_words_s": ("eval-words --k 1", "eval-words --k 10"),
    "probe_s": ("eval-probe",),
    "embed_eval_s": ("eval-analogy", "eval-sim", "eval-translate", "dump-embeddings"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Checks:
    """Every command run and every output check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Pipeline:
    """The timed pipeline of one workload, run once per repetition."""

    def __init__(self, spec, inputs, seed, checks, tracer):
        self.spec, self.inp, self.seed = spec, inputs, seed
        self.checks, self.tracer = checks, tracer
        from weaklearn import cli
        from weaklearn.trainer import TrainConfig, load_trainlog, schedule_violations

        self.cli = cli
        self.train_cfg = TrainConfig(**dict(spec["train"], seed=seed))
        self.load_trainlog, self.schedule_violations = load_trainlog, schedule_violations
        self.dict_path = os.path.join(inputs.data_dir, "dict.tsv")
        self.dict_sha = sha256(self.dict_path)
        self.ckpt_sha: str | None = None
        self.ckpt = ""
        self.times: dict[str, list[float]] = {}  # wall seconds of each command run, by label

    def command(self, argv: list[str], traced: bool, fields: tuple[str, ...], label: str = "") -> tuple[dict | None, float]:
        """Run one subcommand; returns its JSON report (None on failure) and wall
        seconds, which are also kept in self.times under label (argv[0] by default)."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if traced else nullcontext()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            code, err = 2, io.StringIO(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        self.times.setdefault(label or argv[0], []).append(seconds)
        report = None
        if self.checks.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"):
            lines = out.getvalue().strip().splitlines()
            try:
                report = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                report = None
            ok = isinstance(report, dict) and all(f in report for f in fields)
            if not self.checks.check(ok, f"{argv[0]} printed no report with fields {fields}"):
                report = None
        return report, seconds

    def expect(self, report: dict | None, ok, what: str) -> None:
        if report is not None:
            self.checks.check(bool(ok(report)), f"{what}: {report}")

    def eval_words(self, traced: bool, m: dict) -> None:
        """eval-words --k 1 and --k 10 on the held-out dir."""
        inp, ckpt = self.inp, self.ckpt
        for k in (1, 10):
            r, _ = self.command(
                ["eval-words", "--ckpt", ckpt, "--data", inp.heldout_dir, "--k", str(k)], traced, EVAL_FIELDS,
                f"eval-words --k {k}",
            )
            self.expect(
                r, lambda r: r["metric"] == "precision_at_k" and r["k"] == k
                and r["n_items"] == inp.n_heldout and 0.0 <= r["value"] <= 1.0, f"eval-words --k {k}",
            )
            if r:
                self.same_value(m, f"heldout_p{k}", r["value"])

    def embed_evals(self, traced: bool, m: dict) -> None:
        """eval-analogy, eval-sim, eval-translate [and dump-embeddings]."""
        inp, ckpt, n = self.inp, self.ckpt, self.inp.n_items
        for argv, metric, lo in (
            (["eval-analogy", "--questions", inp.analogy_path], "analogy_accuracy", 0.0),
            (["eval-sim", "--pairs", inp.sim_path], "spearman_similarity", -1.0),
            (["eval-translate", "--pairs", inp.translate_path, "--k", "10"], "translation_precision_forward", 0.0),
        ):
            r, _ = self.command(argv[:1] + ["--ckpt", ckpt, "--dict", self.dict_path] + argv[1:], traced, EVAL_FIELDS)
            self.expect(
                r, lambda r: r["metric"] == metric and r["n_items"] == n and r["n_skipped"] == 0
                and lo <= r["value"] <= 1.0, argv[0],
            )
            if r:
                self.same_value(m, metric, r["value"])
        if self.spec["dump_embeddings"]:
            out = os.path.join(os.path.dirname(ckpt), "embeddings.csv")
            r, _ = self.command(
                ["dump-embeddings", "--ckpt", ckpt, "--dict", self.dict_path, "--out", out],
                traced, ("csv", "neighbors", "k"),
            )
            self.expect(r, lambda r: r["k"] == inp.dict_k and os.path.exists(r["neighbors"]), "dump-embeddings")

    def same_value(self, m: dict, name: str, value: float) -> None:
        """Keeps an eval's value; a repeated eval of the same checkpoint must print the same value."""
        if name in m:
            self.checks.check(value == m[name], f"{name} changed between repeated evals: {m[name]} then {value}")
        else:
            m[name] = value

    def run(self, rep_dir: str, traced: bool) -> dict:
        """One repetition: build-dict, train, then eval_repeats passes of the short eval
        commands, with eval-probe halfway through them so that the short commands are
        sampled at two moments seconds apart. Command times are kept in m["commands"]."""
        inp, spec, check = self.inp, self.spec, self.checks.check
        data = inp.data_dir
        self.ckpt = os.path.join(rep_dir, "run", "checkpoint.wlckpt")
        m: dict = {}
        self.times = m["commands"] = {}

        r, dict_s = self.command(
            ["build-dict", "--captions", os.path.join(data, "captions.jsonl"), "--k",
             str(spec["synth"]["k"]), "--stop-count", "0", "--out", self.dict_path],
            traced, ("k", "stop_count", "out"),
        )
        self.expect(r, lambda r: r["k"] == inp.dict_k, "build-dict K")
        check(sha256(self.dict_path) == self.dict_sha, "build-dict wrote a different dictionary")

        run_dir = os.path.dirname(self.ckpt)
        r, train_s = self.command(
            ["train", "--config", inp.config_path, "--data-dir", data, "--out-dir", run_dir],
            traced, ("checkpoint", "epochs", "final_val_error"),
        )
        records = self.load_trainlog(os.path.join(run_dir, "trainlog.jsonl")).records if r else []
        self.expect(r, lambda r: r["epochs"] == len(records) > 0, "train epochs")
        check(all(math.isfinite(rec["train_loss_mean"]) for rec in records), "non-finite train_loss_mean")
        violations = self.schedule_violations(records, self.train_cfg)
        check(not violations, f"schedule violations: {violations}")
        if r and records:
            m["final_val_error"] = r["final_val_error"]
            m["final_train_loss"] = records[-1]["train_loss_mean"]
            sha = sha256(self.ckpt)
            self.ckpt_sha = self.ckpt_sha or sha
            check(sha == self.ckpt_sha, "checkpoint differs from the first repetition's")
        wall_s = sum(rec["wall_ms"] for rec in records) / 1000.0
        steps = math.ceil(self.train_cfg.epoch_size / self.train_cfg.batch_size)
        m["setup_s"] = dict_s + train_s - wall_s
        # one sample per epoch: examples drawn over the epoch's wall time, validation included
        m["train_examples_per_s"] = [
            steps * self.train_cfg.batch_size * 1000.0 / rec["wall_ms"] for rec in records
        ]

        repeats = spec["eval_repeats"]
        for i in range(repeats):
            if i == repeats // 2 and spec["probe_lambda_grid"]:
                r, _ = self.command(
                    ["eval-probe", "--ckpt", self.ckpt, "--data", inp.heldout_dir, "--lambda-grid",
                     spec["probe_lambda_grid"], "--seed", str(self.seed)], traced, EVAL_FIELDS,
                )
                self.expect(r, lambda r: r["metric"] == "probe_accuracy" and r["n_items"] > 0, "eval-probe")
                if r:
                    m["probe_accuracy"] = r["value"]
            self.eval_words(traced, m)
            self.embed_evals(traced, m)

        for name, floor in spec["floors"].items():
            if check(name in m, f"{name} was not measured"):
                check(m[name] >= floor, f"{name} {m[name]:.4f} below the floor {floor}")
        for name, ceiling in spec["ceilings"].items():
            if check(name in m, f"{name} was not measured"):
                check(m[name] <= ceiling, f"{name} {m[name]:.4f} above the ceiling {ceiling}")
        return m


def layer_metrics(tracer: Tracer, run_id: int, span_cost_s: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, s in summarize(tracer, run_id, span_cost_s).items():
        base, _, context = name.rpartition(".")
        if context in ("train", "eval") and base.startswith("model."):
            out[f"{base}.{context}_calls"] = s["calls"]
            out[f"{base}.{context}_ms"] = s["total_ms"]
        elif name.startswith("cli."):
            out[f"{name}.self_ms"] = s["self_ms"]
        else:
            out[f"{name}.calls"] = s["calls"]
            out[f"{name}.total_ms"] = s["total_ms"]
            if name in SELF_TIMED:
                out[f"{name}.self_ms"] = s["self_ms"]
    c = tracer.counts[run_id]
    out.update(c.reduce())
    if c.scored_cells:
        out["evaluate.scored_cells"] = c.scored_cells
    return out


def series(rows: list[dict], name: str) -> list[float]:
    """Every sample of one metric over the given repetitions."""
    out = []
    for row in rows:
        value = row.get(name, [])
        out.extend(value if isinstance(value, list) else [value])
    return out


def fast_end(values: list[float], higher_is_better: bool = False) -> float:
    """The fast end of a metric's samples: their 5th percentile (95th for a rate)."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[-1] if higher_is_better else cuts[0]


def end_to_end(samples: dict[str, list[float]], commands: dict[str, list[float]], train_cfg,
               peak_rss_mb: float) -> dict[str, float]:
    """The reported end-to-end values, from a run's samples and command times.

    setup_s is the median. Every other time comes from the fast end of its
    samples (fast_end): this host runs the same code at two speeds about 1.8x
    apart, switching every few seconds as other tenants load the machine, so
    a median reports how long the run spent in the slow state, while the fast
    end is the program's own cost (noise only ever adds time). It is the 5th
    percentile rather than the minimum, which a single lucky sample moves. An
    eval stage is the sum over its commands (STAGES), so that each command's
    fast runs count even where the others' runs were slow. total_s adds up
    the fast end of setup, every epoch at the fast-end rate, and the eval
    stages.
    """
    out = {"setup_s": statistics.median(samples["setup_s"])}
    for stage, labels in STAGES.items():
        fastest = [fast_end(commands[label]) for label in labels if label in commands]
        if fastest:
            out[stage] = sum(fastest)
    if "train_examples_per_s" in samples:  # absent only when every train failed
        rate = out["train_examples_per_s"] = fast_end(samples["train_examples_per_s"], higher_is_better=True)
        epochs = len(samples["train_examples_per_s"]) / len(samples["setup_s"])
        examples = math.ceil(train_cfg.epoch_size / train_cfg.batch_size) * train_cfg.batch_size
        out["total_s"] = fast_end(samples["setup_s"]) + epochs * examples / rate + sum(
            out[stage] for stage in STAGES if stage in out
        )
    out["peak_rss_mb"] = peak_rss_mb
    return out


def describe(values: list[float]) -> str:
    """Sample count, median, quartiles and range of one metric's samples in a run."""
    text = f"n={len(values)} median {statistics.median(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g} .. {q3:.6g}, range {min(values):.6g} .. {max(values):.6g}"
    return text


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # show_config layout differs across numpy versions
        blas_name = "unknown"
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            src_hash.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                src_hash.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "git_rev": git_revision(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_revision() -> str | None:
    """HEAD of the checkout's git repository, or None when it is not one."""
    # GIT_DIR keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def merged_spec(spec: dict, toy: bool) -> dict:
    """The workload's spec, with its "toy" overrides applied for the self-test:
    "synth" and "train" are updated key by key, every other key is replaced."""
    spec = copy.deepcopy(spec)
    if toy:
        for key, value in spec.pop("toy").items():
            if key in ("synth", "train"):
                spec[key].update(value)
            else:
                spec[key] = value
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    started = perf_counter()
    # a terminated run still removes its work dir and stops its input child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
            specs = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read the benchmark definition: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]} or args.workload not in specs:
        fail(f"unknown workload {args.workload!r}")
    spec = merged_spec(specs[args.workload], args.toy)

    sys.path.insert(0, SRC)
    try:
        import weaklearn
    except ImportError as exc:
        fail(f"cannot import weaklearn from {SRC}: {exc}")
    if not os.path.abspath(weaklearn.__file__).startswith(SRC + os.sep):
        fail(f"weaklearn was imported from {weaklearn.__file__}, not from {SRC}")
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work_dir = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    tracer = Tracer() if args.trace else None
    span_cost_s = tracer.span_cost_s() if tracer else 0.0
    try:
        try:
            inputs = make_inputs(spec, args.seed, work_dir, SRC)
        except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
            fail(f"cannot build the inputs: {exc}")
        checks = Checks()
        pipeline = Pipeline(spec, inputs, args.seed, checks, tracer)
        reps: list[dict] = []
        layers: list[dict] = []
        began = perf_counter()
        longest = 0.0
        while len(reps) < MIN_REPS or perf_counter() - started + longest <= args.seconds:
            i = len(reps)
            traced = bool(args.trace) and i % 2 == 1
            rep_dir = os.path.join(work_dir, f"rep{i}")
            rep_start = perf_counter()
            if traced:
                tracer.start_run(i)
                tracer.install()
            try:
                metrics = pipeline.run(rep_dir, traced)
            finally:
                if traced:
                    tracer.uninstall()
            longest = max(longest, perf_counter() - rep_start)
            metrics["traced"] = traced
            reps.append(metrics)
            if traced:
                layers.append(layer_metrics(tracer, i, span_cost_s))
            shutil.rmtree(rep_dir, ignore_errors=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    e2e = {name: series(plain, name) for name in
           ("setup_s", "train_examples_per_s",
            "heldout_p1", "heldout_p10", "probe_accuracy", "final_val_error", "final_train_loss")}
    e2e = {name: values for name, values in e2e.items() if values}
    commands: dict[str, list[float]] = {}
    for row in plain:
        for label, seconds in row["commands"].items():
            commands.setdefault(label, []).extend(seconds)
    values = end_to_end(e2e, commands, pipeline.train_cfg, peak_rss_mb)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions in "
          f"{perf_counter() - began:.1f} s, {inputs.dict_k} classes, {inputs.n_heldout} held-out rows")
    for name, samples in list(e2e.items()) + [(f"{label} s", secs) for label, secs in commands.items()]:
        print(f"  {name:<22} {describe(samples)}")
    print("reported: " + ", ".join(f"{name} {value:.6g}" for name, value in values.items()))

    if args.trace:
        wanted = bench["per_layer"]
        # every span value from one repetition, so that the children and self
        # times of trainer.train add up; the one whose training ran fastest
        layer_values = dict(min(layers, key=lambda row: row.get("trainer.train.total_ms", math.inf)))
        traced_eps = series([r for r in reps if r["traced"]], "train_examples_per_s")
        if traced_eps and "train_examples_per_s" in values:
            untraced, traced = values["train_examples_per_s"], fast_end(traced_eps, higher_is_better=True)
            layer_values["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
            print(f"trace: train_examples_per_s untraced {untraced:.6g}, traced {traced:.6g}")
        print(f"trace: each wrapped call costs {span_cost_s * 1e6:.2f} us outside its span; "
              "that much per direct child is taken out of the parent's self_ms")
        print(f"trace: {len(layers)} traced repetitions, {len(tracer.spans)} spans; "
              f"checkpoint identical to the untraced run: {not any('checkpoint' in f for f in checks.failures)}")
        if tracer.missing:
            print("trace: missing wrap targets (not timed): " + ", ".join(sorted(tracer.missing)))
        for error in sorted(tracer.hook_errors):
            print(f"trace: count not taken: {error}")
        listed = {w["name"] for w in wanted}
        for name in sorted(layer_values):
            print(f"  {name:<42} {layer_values[name]:.6g}{'' if name in listed else '  (not in BENCHMARK.json)'}")
        absent = [w["name"] for w in wanted if w["name"] not in layer_values]
        if absent:
            print("trace: metrics not measured: " + ", ".join(absent))
        result_metrics = {w["name"]: {"value": layer_values[w["name"]], "unit": w["unit"]}
                          for w in wanted if w["name"] in layer_values}
    else:
        result_metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
                          for w in bench["end_to_end"] if w["name"] in values}
        absent = [w["name"] for w in bench["end_to_end"] if w["name"] not in values]
        if absent:
            print("metrics not measured: " + ", ".join(absent))

    for failure in checks.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": result_metrics,
    }
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        detail = {"env": env, "workload": spec, "repetitions": reps, "result": result}
        if tracer:
            detail.update(layers=layers, missing=sorted(tracer.missing), spans=span_records(tracer))
        json.dump(detail, fh)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
