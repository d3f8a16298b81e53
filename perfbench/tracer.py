"""Span tracer that wraps betaood's public entry points from outside the package.

The tracer replaces each wrapped function with a timing wrapper, in the
defining module and in every loaded ``betaood`` module that bound the same
object by name (``from .special import digamma_array``, ``import ... as
_digamma_vec``), so calls are seen whichever name they go through.  Nothing
under ``src/`` is modified; ``uninstall`` puts every original back.

Three kinds of wrap keep the trace bounded:

* ``SPAN``  records one span (name, start, end, parent span, run id) per call;
* ``AGG``   per-sample or per-batch calls, aggregated into counters
  (calls, total, self time, size) under their nearest enclosing span;
* ``COUNT`` counts calls under the nearest span and leaves their time to the
  caller's self time.

Self time is a call's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

SPAN, AGG, COUNT = "span", "agg", "count"


class CoverageError(RuntimeError):
    """A wrapped name is gone, or a layer metric reads 0 unexpectedly."""


def _elems(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _rows_arg1(args, kwargs, result):
    return len(args[1])


def _train_rows(args, kwargs, result):
    # rows the SGD loop visits: training rows x epochs
    return len(args[0]) * args[3].epochs


def _result_len(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


@dataclass(frozen=True)
class Wrap:
    layer: str
    module: str
    attr: str
    kind: str
    size: Callable | None = None


WRAPS = (
    Wrap("special.digamma_array", "special", "digamma_array", AGG, _elems),
    Wrap("special.trigamma_array", "special", "trigamma_array", AGG, _elems),
    Wrap("evidence.elu_array", "evidence", "elu_array", AGG),
    Wrap("evidence.elu_grad_array", "evidence", "elu_grad_array", AGG),
    Wrap("evidence.objects", "evidence", "Logits.__init__", AGG),
    Wrap("evidence.objects", "evidence", "EvidencePair.__init__", AGG),
    Wrap("evidence.objects", "evidence", "Prediction.__init__", AGG),
    Wrap("loss", "loss", "beta_loss", COUNT),
    Wrap("loss", "loss", "beta_loss_grad", COUNT),
    Wrap("loss", "loss", "evidence_grad", COUNT),
    Wrap("model.forward_batch", "model", "_forward_batch", AGG, _rows_arg1),
    Wrap("model.per_sample_losses", "model", "per_sample_losses", AGG),
    Wrap("model.batch_gradients", "model", "_batch_gradients", AGG),
    Wrap("model.train", "model", "train", SPAN, _train_rows),
    Wrap("model.predict_batch", "model", "predict_batch", SPAN, _rows_arg1),
    Wrap("model.checkpoint_json", "model", "checkpoint_to_json", SPAN),
    Wrap("model.checkpoint_json", "model", "checkpoint_from_json", SPAN),
    Wrap("scores", "scores", "score_by_name", AGG),
    # each of these runs one grouped threshold sweep
    Wrap("metrics.sweep", "metrics", "roc_curve", COUNT),
    Wrap("metrics.sweep", "metrics", "aupr", COUNT),
    Wrap("metrics.sweep", "metrics", "fpr_at_tpr", COUNT),
    Wrap("metrics.detection_metrics", "metrics", "detection_metrics", SPAN),
    Wrap("metrics.write_roc_csv", "metrics", "write_roc_csv", SPAN),
    Wrap("metrics.mean_average_precision", "metrics", "mean_average_precision", SPAN),
    Wrap("datagen.generate", "datagen", "generate_ind", SPAN),
    Wrap("datagen.generate", "datagen", "generate_ood", SPAN),
    Wrap("datagen.write_jsonl", "datagen", "write_jsonl", SPAN, _file_bytes),
    Wrap("datagen.read_jsonl", "datagen", "read_jsonl", SPAN, _result_len),
    Wrap("cli.gen_data", "cli", "cmd_gen_data.callback", SPAN),
    Wrap("cli.train", "cli", "cmd_train.callback", SPAN),
    Wrap("cli.score", "cli", "cmd_score.callback", SPAN),
    Wrap("cli.eval", "cli", "cmd_eval.callback", SPAN),
    Wrap("cli.sweep", "cli", "cmd_sweep_lambda.callback", SPAN),
    Wrap("cli.csv_read", "cli", "_read_scores_csv", SPAN),
    Wrap("cli.csv_read", "cli", "_read_preds_csv", SPAN),
)

# The end-to-end metric and workload each per-layer metric should move.  The
# names and units of the per-layer metrics are in BENCHMARK.json.
LAYER_METRICS = {
    "special.digamma_array.calls": "train_cpu_s on default (most of it) and wide; not scaled",
    "special.digamma_array.elems": "train_cpu_s on default and wide; not scaled",
    "special.digamma_array.self_s": "train_cpu_s on default (most of it) and wide; not scaled",
    "special.trigamma_array.calls": "train_cpu_s on default (most of it) and wide; not scaled",
    "special.trigamma_array.elems": "train_cpu_s on default and wide; not scaled",
    "special.trigamma_array.self_s": "train_cpu_s on default (most of it) and wide; not scaled",
    "evidence.elu_array.self_s": "train_cpu_s on wide",
    "evidence.elu_grad_array.self_s": "train_cpu_s on wide",
    "evidence.objects": "score_cpu_s on scaled",
    "evidence.objects.self_s": "score_cpu_s on scaled",
    "loss.calls": "none: 0 while model.py keeps its own loss; train_cpu_s on default must not move when it becomes nonzero",
    "model.forward_batch.calls": "train_cpu_s on wide",
    "model.forward_batch.rows": "train_cpu_s on wide",
    "model.forward_batch.self_s": "train_cpu_s on wide",
    "model.batch_gradients.self_s": "train_cpu_s on wide",
    "model.per_sample_losses.self_s": "train_cpu_s on wide",
    "model.forward_rows_per_train_row": "train_cpu_s on default and wide (2.0: each batch is forwarded twice)",
    "model.train.self_s": "train_cpu_s on default",
    "model.predict_batch.self_s": "score_cpu_s on scaled",
    "model.checkpoint_json_s": "train_cpu_s and score_cpu_s on wide",
    "scores.calls": "score_cpu_s on scaled; small on default",
    "scores.calls_per_sample": "score_cpu_s on scaled; small on default",
    "scores.self_s": "score_cpu_s on scaled; small on default",
    "metrics.sweeps": "eval_cpu_s and sweep_cpu_s on scaled",
    "metrics.sweeps_per_score": "eval_cpu_s on scaled (4.0 sweeps per score in eval)",
    "metrics.detection_metrics.self_s": "eval_cpu_s and sweep_cpu_s on scaled",
    "metrics.roc_write_s": "eval_cpu_s on scaled",
    "metrics.map_s": "eval_cpu_s on scaled",
    "datagen.generate_s": "gen_data_cpu_s on scaled",
    "datagen.write_jsonl_s": "gen_data_cpu_s on scaled",
    "datagen.write_jsonl_bytes": "gen_data_cpu_s on scaled",
    "datagen.read_jsonl_s": "train_cpu_s and score_cpu_s on wide and scaled",
    "datagen.read_jsonl_rows": "train_cpu_s and score_cpu_s on wide and scaled",
    "cli.gen_data.self_s": "gen_data_cpu_s on scaled",
    "cli.train.self_s": "train_cpu_s on scaled",
    "cli.score.self_s": "score_cpu_s on scaled (CSV writing, repr per cell)",
    "cli.eval.self_s": "eval_cpu_s on scaled",
    "cli.sweep.self_s": "sweep_cpu_s on scaled",
    "cli.csv_read_s": "eval_cpu_s and sweep_cpu_s on scaled",
    "cli.csv_bytes_written": "score_cpu_s, eval_cpu_s and sweep_cpu_s on scaled",
    "trace.overhead_s": "none: traced pipeline_cpu_s minus untraced pipeline_cpu_s",
    "trace.spans": "none: spans recorded in one traced pipeline",
}

# Layer metrics that read 0 on today's pipeline by design.
EXPECTED_ZERO = frozenset({"loss.calls"})


class Tracer:
    """Collects spans and per-span counters for one traced pipeline run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self._child_s: list[float] = []  # child time of each open timed call
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _counters(self) -> dict:
        if not self._open:
            raise CoverageError("wrapped call outside any span")
        return self.spans[self._open[-1]]["counters"]

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its record."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "size": 0,
            "counters": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += end - start
            self._open.pop()
            rec.update(start=start, end=end, self_s=end - start - child)

    def _call_span(self, layer: str, size, fn, args, kwargs):
        with self.span(layer) as rec:
            result = fn(*args, **kwargs)
        if size:
            rec["size"] = size(args, kwargs, result)
        return result

    def _call_agg(self, layer: str, size, fn, args, kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += end - start
        c = self._counters().setdefault(layer, [0, 0.0, 0.0, 0])
        c[0] += 1
        c[1] += end - start
        c[2] += end - start - child
        if size:
            c[3] += size(args, kwargs, result)
        return result

    def _wrapper(self, w: Wrap, fn):
        if w.kind == COUNT:
            def wrapper(*args, **kwargs):
                c = self._counters().setdefault(w.layer, [0, 0.0, 0.0, 0])
                c[0] += 1
                return fn(*args, **kwargs)
        else:
            call = self._call_span if w.kind == SPAN else self._call_agg

            def wrapper(*args, **kwargs):
                return call(w.layer, w.size, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in WRAPS, failing loudly on a missing name."""
        pkg_modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "betaood" or name.startswith("betaood.")
        ]
        try:
            for w in WRAPS:
                owner = sys.modules.get(f"betaood.{w.module}")
                if owner is None:
                    raise CoverageError(f"module betaood.{w.module} is not loaded")
                *path, last = w.attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, last):
                    raise CoverageError(
                        f"wrapped name betaood.{w.module}.{w.attr} no longer exists"
                    )
                fn = getattr(owner, last)
                wrapper = self._wrapper(w, fn)
                self._patch(owner, last, wrapper)
                if path:
                    continue
                # every module that bound the same function by name
                for mod in pkg_modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def _within(self, span_id, name: str) -> bool:
        while span_id is not None:
            if self.spans[span_id]["name"] == name:
                return True
            span_id = self.spans[span_id]["parent"]
        return False

    def totals(self, within: str | None = None) -> dict[str, list]:
        """layer -> [calls, total_s, self_s, size], optionally under one span name."""
        out: dict[str, list] = {}

        def add(layer, calls, total, self_s, size):
            t = out.setdefault(layer, [0, 0.0, 0.0, 0])
            t[0] += calls
            t[1] += total
            t[2] += self_s
            t[3] += size

        for rec in self.spans:
            if within is not None and not self._within(rec["id"], within):
                continue
            add(rec["name"], 1, rec["end"] - rec["start"], rec["self_s"], rec["size"])
            for layer, c in rec["counters"].items():
                add(layer, *c)
        return out

    def write(self, fh) -> None:
        for rec in self.spans:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def layer_metrics(tr: Tracer, csv_bytes_written: int) -> dict[str, float]:
    """Every wrapped-layer metric of one traced pipeline."""
    zero = [0, 0.0, 0.0, 0]
    t = tr.totals()
    in_train = tr.totals(within="model.train")
    in_eval = tr.totals(within="cli.eval")

    def calls(layer, tot=t):
        return tot.get(layer, zero)[0]

    def total_s(layer):
        return t.get(layer, zero)[1]

    def self_s(layer):
        return t.get(layer, zero)[2]

    def size(layer, tot=t):
        return tot.get(layer, zero)[3]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "evidence.objects": calls("evidence.objects"),
        "loss.calls": calls("loss"),
        "model.forward_rows_per_train_row": ratio(
            size("model.forward_batch", in_train), size("model.train")
        ),
        "model.checkpoint_json_s": total_s("model.checkpoint_json"),
        "scores.calls": calls("scores"),
        "scores.calls_per_sample": ratio(calls("scores"), size("model.predict_batch")),
        "scores.self_s": self_s("scores"),
        "metrics.sweeps": calls("metrics.sweep"),
        "metrics.sweeps_per_score": ratio(
            calls("metrics.sweep", in_eval), calls("metrics.detection_metrics", in_eval)
        ),
        "metrics.roc_write_s": total_s("metrics.write_roc_csv"),
        "metrics.map_s": total_s("metrics.mean_average_precision"),
        "datagen.generate_s": total_s("datagen.generate"),
        "datagen.write_jsonl_s": total_s("datagen.write_jsonl"),
        "datagen.write_jsonl_bytes": size("datagen.write_jsonl"),
        "datagen.read_jsonl_s": total_s("datagen.read_jsonl"),
        "datagen.read_jsonl_rows": size("datagen.read_jsonl"),
        "cli.csv_read_s": total_s("cli.csv_read"),
        "cli.csv_bytes_written": csv_bytes_written,
    }
    for layer in ("special.digamma_array", "special.trigamma_array"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.elems"] = size(layer)
    m["model.forward_batch.calls"] = calls("model.forward_batch")
    m["model.forward_batch.rows"] = size("model.forward_batch")
    for layer in (
        "special.digamma_array", "special.trigamma_array",
        "evidence.elu_array", "evidence.elu_grad_array", "evidence.objects",
        "model.forward_batch", "model.batch_gradients", "model.per_sample_losses",
        "model.train", "model.predict_batch", "metrics.detection_metrics",
        "cli.gen_data", "cli.train", "cli.score", "cli.eval", "cli.sweep",
    ):
        m[f"{layer}.self_s"] = self_s(layer)
    silent = sorted(k for k, v in m.items() if v == 0 and k not in EXPECTED_ZERO)
    if silent:
        raise CoverageError(
            "layer metrics read 0 but are not declared expected-zero: "
            + ", ".join(silent)
        )
    return m
