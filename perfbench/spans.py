"""Spans recorded around calls into weaklearn, from outside the package.

Each wrapped function is replaced at the module attribute its caller looks
up (``weaklearn.trainer.forward`` for training calls, ``weaklearn.evaluate
.forward`` for validation and eval calls), so no file under ``src/`` changes
and the wrappers see exactly the calls made from that module. A wrapper only
records timestamps and reads arguments and results; it never touches the
arrays it passes through, so tracing cannot change the arithmetic.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (module, attribute, layer span name, call context). The context splits one
# function by caller: "train" for calls from trainer, "eval" from evaluate.
WRAPS = [
    ("cli", "build_dictionary", "textpipe.build_dictionary", None),
    ("cli", "save_dictionary", "textpipe.save_dictionary", None),
    ("cli", "load_dictionary", "textpipe.load_dictionary", None),
    ("cli", "load_dataset", "data.load_dataset", None),
    ("data", "read_captions_jsonl", "data.read_captions_jsonl", None),
    ("data", "read_tensor_container", "data.read_tensor_container", None),
    ("cli", "train", "trainer.train", None),
    ("cli", "save_trainlog", "trainer.save_trainlog", None),
    ("trainer", "split_dataset", "trainer.split_dataset", None),
    ("trainer", "build_index", "sampler.build_index", None),
    ("trainer", "init_params", "model.init_params", None),
    ("trainer", "next_batch", "sampler.next_batch", None),
    ("trainer", "forward", "model.forward", "train"),
    ("trainer", "score_subset", "model.score_subset", "train"),
    ("trainer", "sampled_multiclass_loss", "loss.sampled_multiclass_loss", None),
    ("trainer", "score_subset_backward", "model.score_subset_backward", None),
    ("trainer", "backward", "model.backward", None),
    ("trainer", "sgd_step", "trainer.sgd_step", None),
    ("trainer", "validation_error", "trainer.validation_error", None),
    ("trainer", "precision_at_k", "evaluate.precision_at_k", None),
    ("trainer", "save_checkpoint", "model.save_checkpoint", None),
    ("cli", "load_checkpoint", "model.load_checkpoint", None),
    ("cli", "precision_at_k", "evaluate.precision_at_k", None),
    ("evaluate", "forward", "model.forward", "eval"),
    ("evaluate", "score_subset", "model.score_subset", "eval"),
    ("cli", "extract_features", "evaluate.extract_features", None),
    ("cli", "linear_probe", "evaluate.linear_probe", None),
    ("cli", "analogy_accuracy", "evaluate.analogy_accuracy", None),
    ("cli", "spearman_similarity", "evaluate.spearman_similarity", None),
    ("cli", "translation_precision", "evaluate.translation_precision", None),
    ("cli", "dump_embeddings", "evaluate.dump_embeddings", None),
]

# Spans whose self time (duration minus the time its direct children cover)
# is reported; for the others every child is itself a reported span.
SELF_TIMED = ("trainer.train", "data.load_dataset", "evaluate.precision_at_k")


@dataclass
class Span:
    name: str  # layer span name, with ".<context>" appended when it has one
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int


@dataclass
class Counts:
    """Counts taken at the wrapped boundaries during one run (one pipeline rep).

    The hooks only append; the counts are reduced after the run, so that the
    tracer adds as little as it can to the self time of the spans it wraps.
    """

    # (next_batch start, present_classes), with None where an epoch ends
    batches: list = field(default_factory=list)
    k: int = 0
    scored_cells: int = 0
    step_gflop: float = 0.0

    def reduce(self) -> dict[str, float]:
        present = [b[1] for b in self.batches if b is not None]
        if not present:
            return {}
        touched = np.unique(np.concatenate(present))
        step_ms = []
        for prev, cur in zip(self.batches, self.batches[1:]):
            if prev is not None and cur is not None:
                step_ms.append((cur[0] - prev[0]) * 1000.0)
        out = {
            "sampler.present_classes_mean": float(np.mean([p.size for p in present])),
            "trainer.cols_touched": int(touched.size),
            "trainer.cols_never_touched": self.k - int(touched.size),
            "model.step_gflop": self.step_gflop,
        }
        if len(step_ms) >= 10:
            out["step.ms_p50"] = float(np.percentile(step_ms, 50))
            out["step.ms_p90"] = float(np.percentile(step_ms, 90))
            out["step.count"] = len(step_ms)
        return out


class Tracer:
    """Keeps spans and counts in memory; written out once, after the last run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counts] = {}
        self.missing: set[str] = set()
        self.hook_errors: set[str] = set()
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def start_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts[run_id] = Counts()

    def install(self) -> None:
        """Wrap every WRAPS target; a target that does not exist is listed as missing."""
        hooks = {
            "sampler.next_batch": self._on_next_batch,
            "trainer.train": self._on_train,
            "trainer.validation_error": self._on_validation,
            "evaluate.precision_at_k": self._on_precision,
        }
        for module_name, attr, name, context in WRAPS:
            module = importlib.import_module(f"weaklearn.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(f"weaklearn.{module_name}.{attr}")
                continue
            full = f"{name}.{context}" if context else name
            wrapper = self._wrapper(original, full, hooks.get(name))
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrapper(self, original, name: str, hook):
        def wrapped(*args, **kwargs):
            if hook is None:
                with self.span(name):
                    return original(*args, **kwargs)
            start = perf_counter()
            with self.span(name):
                result = original(*args, **kwargs)
            try:
                hook(start, args, kwargs, result)
            except Exception as exc:  # a count that cannot be taken is reported, never fatal
                self.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        wrapped.__wrapped__ = original
        return wrapped

    # hooks run after the call, outside its span
    def _on_next_batch(self, start, args, kwargs, batch) -> None:
        # a copy, in case a later sampler reuses its output buffer
        self.counts[self.run_id].batches.append((start, np.array(batch.present_classes)))

    def _on_validation(self, start, args, kwargs, result) -> None:
        # an epoch ends here; the next step interval starts with the next epoch
        self.counts[self.run_id].batches.append(None)

    def _on_train(self, start, args, kwargs, result) -> None:
        counts = self.counts[self.run_id]
        cfg, _, model_cfg = args[:3]
        counts.k = int(kwargs["k"])
        counts.batches.append(None)
        sizes = [b[1].size for b in counts.batches if b is not None]
        counts.step_gflop = step_gflop(model_cfg, cfg.batch_size, float(np.mean(sizes)) if sizes else 0.0)

    def _on_precision(self, start, args, kwargs, result) -> None:
        params, dataset = args[:2]
        self.counts[self.run_id].scored_cells += len(dataset) * int(params.k)

    def span_cost_s(self, calls: int = 2000, rounds: int = 5) -> float:
        """Seconds each wrapped call spends outside its own span, which land in the
        self time of its parent span. Median over rounds of a wrapped no-op."""

        def noop():
            return None

        costs = []
        for _ in range(rounds):
            scratch = Tracer()
            wrapped = scratch._wrapper(noop, "noop", None)
            start = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            outer = perf_counter() - start
            inside = sum(span.end - span.start for span in scratch.spans)
            costs.append((outer - inside - bare) / calls)
        costs.sort()
        return costs[len(costs) // 2]


def step_gflop(model_cfg, batch_size: int, mean_present: float) -> float:
    """Computed (not measured) GFLOP of one SGD step, from the layer shapes.

    Counts 2 flops per multiply-add: the backbone forward, twice that for
    backward (input and weight gradients), and the same for the subset
    scoring over the mean number of batch-present classes.
    """
    h, w, c = model_cfg.input_hwc
    flat = None
    macs = 0
    for layer in model_cfg.layers:
        if layer[0] == "conv":
            _, ks, ch = layer
            h, w = h - ks + 1, w - ks + 1
            macs += h * w * ks * ks * c * ch
            if h >= 2 and w >= 2:
                h, w = h // 2, w // 2
            c = ch
        else:
            width = layer[1]
            flat = h * w * c if flat is None else flat
            macs += flat * width
            flat = width
    macs += model_cfg.embed_dim * mean_present
    return 3 * 2 * macs * batch_size / 1e9


def summarize(tracer: Tracer, run_id: int, span_cost_s: float = 0.0) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_ms and self_ms over the spans of one run.

    self_ms is the duration minus the time the direct children cover, minus
    span_cost_s for each direct child: the tracer's own cost, which would
    otherwise be counted as the parent's work.
    """
    child_ms: dict[int, float] = {}
    for span in tracer.spans:
        if span.run_id == run_id and span.parent is not None:
            covered = (span.end - span.start + span_cost_s) * 1000.0
            child_ms[span.parent] = child_ms.get(span.parent, 0.0) + covered
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        if span.run_id != run_id:
            continue
        total = (span.end - span.start) * 1000.0
        entry = out.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += total
        entry["self_ms"] += total - child_ms.get(index, 0.0)
    return out


def span_records(tracer: Tracer) -> dict:
    """Compact form for the trace file: names once, then one row per span."""
    names = sorted({span.name for span in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return {
        "names": names,
        "columns": ["name", "start_us", "end_us", "parent", "run_id"],
        "rows": [
            [
                code[s.name],
                round((s.start - origin) * 1e6, 1),
                round((s.end - origin) * 1e6, 1),
                s.parent,
                s.run_id,
            ]
            for s in tracer.spans
        ],
    }
